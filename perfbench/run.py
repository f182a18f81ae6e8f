#!/usr/bin/env python3
"""Campaign benchmark for the Comfort fuzzer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload comfort-102 --seed 3 --seconds 15 --trace 0

It builds perfbench/harness.exe from source, runs the workload in fresh
harness processes and prints, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
of a traced run, whose spans go to .bench_out/ as JSONL and as a Chrome
trace-event file.

Each workload is a fixed table of campaign seeds, one fixed-budget campaign
per seed. Every campaign's report is checked against a digest recorded on
the reference path (sharing, slot compilation, reach folding and
specialisation all off) in perfbench/digests.json, so the fast path is never
checked against itself. --seed picks the order in which a run cycles through
the table, and the table seed a traced run replays.

Wall and CPU times are reported at the reference host's speed: a fixed
calibration kernel is timed before every pass, and each pass's times are
scaled by the kernel's reference time over its time in that pass.

To re-record the digests after a deliberate change of campaign reports:

    python3 perfbench/run.py --record
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
HARNESS = os.path.join(BUILD_DIR, "default", "perfbench", "harness.exe")

WORKLOADS = ["comfort-102", "comfort-latest10", "fuzzilli-102", "comfort-102-w2"]
# the fork pool must reproduce the in-process report exactly
DIGESTS_OF = {"comfort-102-w2": "comfort-102"}
# Seeds 1-4 are the first whose campaigns all finish in seconds; seed 5
# draws a program that keeps the comfort workloads' sweep busy for minutes.
RECORD_SEEDS = [1, 2, 3, 4]

END_TO_END = {
    "cases_per_s": "cases/s",
    "bugs_per_cpu_s": "bugs/CPU-s",
    "unique_bugs": "count",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "completed_case_ratio": "ratio",
}

PER_LAYER = {
    **{f"stage.{s}.us_per_case": "us/case"
       for s in ["generate", "screen", "sweep", "vote", "attr", "reduce", "fold"]},
    "stage.unaccounted_pct": "%",
    **{f"jsinterp.{s}.us_per_case": "us/case"
       for s in ["parse", "compile", "realm", "exec"]},
    "lm.ns_per_token": "ns/token",
    "generator.us_per_case": "us/case",
    "analysis.screen.us_per_case": "us/case",
    "analysis.keep_ratio": "ratio",
    "jsparse.parse.us_per_case": "us/case",
    "jsparse.parses_per_case": "parses/case",
    "engines.sweep.us_per_case": "us/case",
    "engines.executions_per_case": "execs/case",
    "engines.share_hit_ratio": "ratio",
    "engines.reach_seeded_per_case": "count/case",
    "jsinterp.specialized_per_case": "count/case",
    "jsinterp.cow_clones": "count",
    "jsinterp.ic_hits": "count",
    "difftest.vote.us_per_case": "us/case",
    "bugfilter.filtered_repeats": "count",
    "reducer.ms_per_discovery": "ms/discovery",
    "reducer.size_ratio": "ratio",
    "ipc.bytes_per_case": "bytes/case",
    "ipc.roundtrip.us_per_case": "us/case",
    "coordinator.respawns": "count",
    "coordinator.hangs": "count",
    "gc.alloc_bytes_per_case": "bytes/case",
    "gc.minor_collections": "count",
    "gc.major_collections": "count",
    "trace.overhead_pct": "%",
}

# Time metrics are reported at the reference host's speed: scaled by the
# calibration kernel's time here against its time on that host (2-core
# x86-64 VM, OCaml 5.1.1).
REFERENCE_CALIB_S = 0.09

# set-up is measured in this many fresh processes per run, median reported
SETUP_SAMPLES = 5
# a run must end within this many seconds of its (usually no-op) build
DEADLINE_S = 160

# Each of these silently changes the program being measured.
REFERENCE_ENV = {
    "COMFORT_NO_SHARE": "1",
    "COMFORT_NO_RESOLVE": "1",
    "COMFORT_NO_REACH": "1",
    "COMFORT_NO_SPECIALIZE": "1",
}


class BenchError(Exception):
    pass


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        raise BenchError("run from the root of a Comfort source checkout")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/harness.exe"],
        stdout=sys.stderr, timeout=DEADLINE_S * 5)
    if proc.returncode != 0 or not os.path.isfile(HARNESS):
        raise BenchError("building the harness failed")


def harness(mode, workload, seeds, deadline, env=None, extra=()):
    args = [HARNESS, mode, "--workload", workload,
            "--seeds", ",".join(str(s) for s in seeds), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=remaining)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"harness {mode} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def load_table(workload):
    with open(DIGESTS) as f:
        table = json.load(f)[DIGESTS_OF.get(workload, workload)]
    seeds = sorted(int(s) for s in table["digests"])
    return table["budget"], seeds, {int(s): d for s, d in table["digests"].items()}


def source_sha1():
    h = hashlib.sha1()
    for top in ["lib", "perfbench"]:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune", ".py", ".json")):
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host(out):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "domains": out.get("domains"),
        "ocaml": out.get("ocaml"),
        "commit": git_commit(),
        "source_sha1": source_sha1(),
        "load1": os.getloadavg()[0],
    }


def end_to_end(args, deadline):
    budget, seeds, digests = load_table(args.workload)
    check = args.budget is None
    if not check:
        budget = args.budget
    k = args.seed % len(seeds)
    order = seeds[k:] + seeds[:k]
    extra = ["--budget", str(budget), "--seconds", str(args.seconds)]
    if check:
        extra += ["--expect", ",".join(digests[s] for s in order)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        one = harness("setup", args.workload, order[:1], deadline)
        setups.append(one["setup_s"] * REFERENCE_CALIB_S / one["calib_s"])
    out = harness("run", args.workload, order, deadline, extra=extra)
    passes = out["passes"]
    calib = statistics.median(p["pass"]["calib_s"] for p in passes)
    setups.append(out["setup_s"] * REFERENCE_CALIB_S / calib)
    per_seed = {s: [p["pass"] for p in passes if p["seed"] == s] for s in order}
    correct = all(p["pass"]["digest_ok"] for p in passes)
    bugs = {}
    for s, ps in per_seed.items():
        counts = {p["bugs"] for p in ps}
        if len(counts) != 1:
            correct = False
        bugs[s] = min(counts)
    attempted = budget * len(passes)
    failed = sum(p["pass"]["failed"] for p in passes)
    cases = budget * len(order)
    raw_cases_per_s = cases / sum(
        statistics.median(p["wall_s"] for p in ps) for ps in per_seed.values())

    def at_reference_speed(key):
        return sum(statistics.median(p[key] * REFERENCE_CALIB_S / p["calib_s"]
                                     for p in ps)
                   for ps in per_seed.values())

    wall, cpu = at_reference_speed("wall_s"), at_reference_speed("cpu_s")
    metrics = {
        "cases_per_s": cases / wall,
        "bugs_per_cpu_s": sum(bugs.values()) / cpu,
        "unique_bugs": sum(bugs.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": out["peak_rss_mb"],
        "completed_case_ratio": 1.0 - failed / attempted,
    }
    info = {"workload": args.workload, "budget": budget, "order": order,
            "passes": len(passes),
            "digests": {s: per_seed[s][0]["digest"] for s in order},
            "bugs": bugs, "setup_samples": setups, "calib_s": calib,
            "raw_cases_per_s": raw_cases_per_s}
    return correct, attempted, failed, metrics, END_TO_END, info, out


def per_layer(args, deadline):
    budget, seeds, digests = load_table(args.workload)
    seed = seeds[args.seed % len(seeds)]
    extra = ["--seconds", str(args.seconds), "--out", OUT_DIR]
    if args.budget is None:
        extra += ["--budget", str(budget), "--expect", digests[seed]]
    else:
        extra += ["--budget", str(args.budget)]
        budget = args.budget
    os.makedirs(OUT_DIR, exist_ok=True)
    out = harness("trace", args.workload, [seed], deadline, extra=extra)
    for e in out["errors"]:
        print(f"perfbench: {e}", file=sys.stderr)
    correct = not out["errors"]
    failed = budget if not correct else out["failed"]
    info = {"workload": args.workload, "budget": budget, "seed": seed,
            "digests": {seed: out["digest"]}, "bugs": out["bugs"],
            "spans": os.path.join(OUT_DIR, f"{args.workload}-seed{seed}.*")}
    return correct, budget, failed, out["metrics"], PER_LAYER, info, out


def record(deadline):
    """Record every workload's digests on the reference path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("COMFORT_")}
    env.update(REFERENCE_ENV)
    table = {}
    for w in WORKLOADS:
        if w in DIGESTS_OF:
            continue
        digests, budget = {}, None
        for s in RECORD_SEEDS:
            out = harness("digest", w, [s], deadline, env=env)
            budget = out["budget"]
            if out["failed"]:
                raise BenchError(f"{w} seed {s}: {out['failed']} failed cases")
            digests[str(s)] = out["digest"]
            print(f"{w} seed {s}: {out['digest']} ({out['bugs']} bugs, "
                  f"{out['wall_s']:.1f} s)", file=sys.stderr)
        table[w] = {"budget": budget, "digests": digests}
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--budget", type=int,
                    help="cases per campaign; skips the recorded-digest check")
    ap.add_argument("--record", action="store_true",
                    help="re-record perfbench/digests.json on the reference path")
    args = ap.parse_args()
    set_vars = sorted(k for k in os.environ if k.startswith("COMFORT_"))
    if set_vars:
        die("refusing to run with " + ", ".join(set_vars) +
            " set: each one changes the program being measured")
    try:
        build()
        if args.record:
            record(time.monotonic() + 3600)
            return
        if args.workload is None:
            die("--workload is required")
        deadline = time.monotonic() + DEADLINE_S
        measure = per_layer if args.trace else end_to_end
        correct, attempted, failed, values, units, info, out = measure(args, deadline)
    except (BenchError, OSError, KeyError, ValueError,
            subprocess.TimeoutExpired) as e:
        die(str(e))
    missing = [m for m in units if values.get(m) is None]
    if missing:
        die("missing metrics: " + ", ".join(missing))
    print(json.dumps({"host": host(out)}))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }))


if __name__ == "__main__":
    main()
