(* Fuzzing campaign driver.

   Feeds test cases from a fuzzer into differential testing across a set of
   testbeds, attributes observed deviations to ground-truth bugs (the
   quirks that fired on the deviating engine), de-duplicates repeats with
   the Fig. 6 filter tree, and keeps the discovery timeline that Fig. 8
   plots.

   Testbeds are grouped by mode before voting: a strict-mode engine and a
   sloppy-mode engine can legitimately disagree, so each mode votes among
   its own ranks — this mirrors the paper's 102-testbed setup where bugs
   are reported "under both the normal and the strict modes".

   The driver runs supervised (DESIGN.md §10): every per-case sweep may be
   subjected to a deterministic fault-injection plan, faulted testbeds are
   retried and eventually quarantined, a killed campaign can be resumed
   from a checkpoint, and a campaign that loses its fuzzer or its whole
   testbed pool finishes with an abort reason instead of dying. *)

open Jsinterp

type fuzzer = {
  fz_name : string;
  fz_seed : int;  (** with [fz_name], what rebuilds the fuzzer on resume *)
  fz_next : unit -> (Testcase.t * Run.frontend option) option;
      (** the next case with its syntax check's front end; [None] once
          the fuzzer has run dry *)
  fz_batch : int -> Testcase.t list;  (** [n] pulls, without the parses *)
  fz_raw : (int -> string list) option;
      (** raw generator output before any screening/mutation, used for the
          Fig. 9 syntax-passing-rate metric; [None] means the batch output
          is already the raw output (mutation-based fuzzers) *)
}

let make_fuzzer ~name ~seed ~raw next : fuzzer =
  {
    fz_name = name;
    fz_seed = seed;
    fz_next = next;
    fz_batch =
      (fun n -> List.of_seq (Seq.map fst (Seq.take n (Seq.of_dispenser next))));
    fz_raw = raw;
  }

type discovery = {
  disc_engine : Engines.Registry.engine;
  disc_quirk : Quirk.t;
  disc_case : Testcase.t;
  disc_reduced : string option;
  disc_kind : Difftest.deviation_kind;
  disc_behavior : string;
  disc_at : int;          (** how many cases had run when it was found *)
  disc_version : string;  (** earliest engine version exhibiting the bug *)
  disc_mode : Engines.Engine.mode;
}

type result = {
  cp_fuzzer : string;
  cp_cases_run : int;
  cp_discoveries : discovery list;
  cp_filtered_repeats : int;   (** deviations suppressed by the Fig. 6 tree *)
  cp_unattributed : int;       (** deviations with no fired quirk (noise) *)
  cp_timeline : (int * int) list;  (** (cases run, cumulative unique bugs) *)
  cp_screened_out : int;       (** cases dropped by the static-analysis screen *)
  cp_screen_reasons : (string * int) list;  (** drop reason -> count *)
  cp_repaired : int;           (** cases kept after free-variable repair *)
  cp_reach_seeded : int;  (** always 0; kept for the benchmark harness *)
  cp_specialized : int;
      (** slot compilations performed, one per (front end, mode) that
          executes — a strict testbed that inherits a sloppy run
          compiles nothing (0 under [Reference]); reports are identical
          either way — see [Compile] *)
  cp_cow_clones : int;
      (** realm-template objects lazily journaled by the copy-on-write
          write barrier (0 under [Reference]) *)
  cp_ic_hits : int;  (** always 0; kept for the benchmark harness *)
  cp_skipped_cases : int;      (** cases lost to worker failures (recorded,
                                   not fatal) *)
  cp_faults : Supervisor.stats;    (** aggregate supervision counters *)
  cp_quarantined : (string * int) list;
      (** quarantined testbeds as (id, case that tripped the threshold) *)
  cp_aborted : string option;  (** why the campaign ended early, if it did *)
}

exception Halted of { halted_at : int; halted_checkpoint : string option }

exception
  Interrupted of {
    int_signal : string;
    int_at : int;
    int_checkpoint : string option;
  }

(* --- the Comfort fuzzer: LM generation + Algorithm 1 mutants --- *)

let comfort_fuzzer ?(seed = 7) ?(with_datagen = true) () : fuzzer =
  let gen = Generator.create ~seed () in
  (* [with_datagen:false] isolates the ECMA-262 guidance (Table 4 /
     ablation 3): drivers and free-variable bindings are still synthesized,
     but from an empty specification database, so every input value is
     random rather than a spec boundary *)
  let db =
    if with_datagen then Lazy.force Specdb.Db.standard else Specdb.Db.build []
  in
  let dg = Datagen.create ~seed:(seed + 1) ~db () in
  (* a generator sample, then its Algorithm 1 mutants, one at a time. The
     mutants' random values are drawn with the sample, but each mutant is
     parsed only when pulled, so its AST lives from the pull to the
     screen: parsing a sample's mutants together kept their ASTs alive
     across minor collections (EXPERIMENTS.md, "One parse per drawn
     case") *)
  let pending = ref Seq.empty in
  let rec next stalls =
    match !pending () with
    | Seq.Cons (c, rest) ->
        pending := rest;
        c
    | Seq.Nil when stalls >= 20 ->
        (* [Generator.next] can legally give up (its attempt cap); bound
           the retries so an exhausted generator fails loudly instead of
           spinning forever *)
        failwith
          "Campaign.comfort_fuzzer: generator produced no test cases after \
           20 consecutive attempts"
    | Seq.Nil -> (
        match Generator.next gen with
        | None -> next (stalls + 1)
        | Some ((_, parse) as c) ->
            (* the syntax check's parse goes straight to Datagen, which
               would otherwise parse the same text again *)
            let mutants =
              match Testcase.program_of parse with
              | Some p -> Datagen.mutate dg p
              | None -> Seq.empty
            in
            pending := Seq.cons c mutants;
            next 0)
  in
  let raw_gen = Generator.create ~seed:(seed + 2) () in
  make_fuzzer
    ~name:(if with_datagen then "Comfort" else "Comfort-nodata")
    ~seed
    ~raw:(Some (fun n -> List.init n (fun _ -> Generator.sample_program raw_gen)))
    (fun () -> Some (next 0))

(* --- semantic screening (the §3.2 "filter" step, upgraded to the full
   static-analysis pass: scope resolution, early errors, determinism
   lint) --- *)

type screened =
  | S_kept of Testcase.t
  | S_repaired of Testcase.t  (** free variables bound by the repair step *)
  | S_dropped of string       (** drop reason, for the reason histogram *)

let screen_parsed (tc : Testcase.t) (parse : Jsast.Ast.program option) :
    screened =
  (* syntactically invalid cases are deliberate (the generator keeps a
     fraction to exercise the parsers) and carry differential signal of
     their own — the semantic screen only judges parseable programs *)
  match parse with
  | None -> S_kept tc
  | Some p -> (
      match Analysis.screen_verdict p with
      | Analysis.Keep -> S_kept tc
      | Analysis.Repair _ ->
          let src = Jsast.Printer.program_to_string (Analysis.bind_free p) in
          S_repaired (Testcase.make ~provenance:tc.Testcase.tc_provenance src)
      | Analysis.Drop reason -> S_dropped reason)

let screen_case (tc : Testcase.t) : screened =
  screen_parsed tc
    (if not tc.Testcase.tc_syntax_valid then None
     else
       match Jsparse.Parser.parse_program tc.Testcase.tc_source with
       | p -> Some p
       | exception Jsparse.Parser.Syntax_error _ -> None)

(* --- campaign --- *)

let api_of_deviation (dev : Difftest.deviation) (tc : Testcase.t)
    ~(ast : Jsast.Ast.program option Lazy.t) : string option =
  match Quirk.Set.choose_opt dev.Difftest.d_fired with
  | Some q -> Some (Engines.Catalogue.find q).Engines.Catalogue.api
  | None -> (
      match tc.Testcase.tc_provenance with
      | Testcase.P_ecma_mutated api -> Some api
      | _ -> (
          match Lazy.force ast with
          | Some p -> (
              match Jsast.Visit.call_sites p with
              | cs :: _ -> Some cs.Jsast.Visit.cs_callee
              | [] -> None)
          | None -> None))

(* Causal attribution: a fired quirk is credited with a deviation only if
   disabling that quirk alone changes the deviating engine's behaviour on
   the test case. This keeps incidental quirk firings (a deviant path that
   executed but produced the same observable output) from inflating the
   bug count.

   Probes join the class-shared execution machinery the sweep itself
   uses, through the driver's per-case probe [cache]: two probes whose
   reduced quirk sets agree on every consulted checkpoint share one
   execution (the common case — most removed quirks were never touched),
   and probes repeated across rule applications on the same case hit the
   same class representatives. Probes run serially on the driver — the
   fired sets being probed are small (typically 1–3 quirks). The [memo]
   table short-circuits exact repeats — same testbed, same removed quirk,
   same baseline signature — without even a signature comparison. *)
let causal_quirks ~strategy ~cache ~memo (tb : Engines.Engine.testbed)
    (dev : Difftest.deviation) : Quirk.t list =
  let cfg = tb.Engines.Engine.tb_config in
  let strict = tb.Engines.Engine.tb_mode = Engines.Engine.Strict in
  let parse_opts = Engines.Registry.parse_opts_of_config cfg in
  let base_sig = dev.Difftest.d_actual in
  let probe q =
    let quirks = Quirk.Set.remove q cfg.Engines.Registry.cfg_quirks in
    (* the parse key is derived from the quirk set, so removing a
       parser-level quirk must move the probe to the parse group it
       actually belongs to — clearing the corresponding flag keeps the
       cache's (front end, mode) invariant intact *)
    let pk = Engines.Registry.parse_key cfg in
    let pkey =
      {
        pk with
        Engines.Registry.pk_for_missing_body =
          pk.Engines.Registry.pk_for_missing_body
          && q <> Quirk.Q_eval_for_missing_body_accepted;
        pk_dup_params =
          pk.Engines.Registry.pk_dup_params
          && q <> Quirk.Q_strict_dup_params_accepted;
        pk_delete_unqualified =
          pk.Engines.Registry.pk_delete_unqualified
          && q <> Quirk.Q_strict_delete_unqualified_accepted;
      }
    in
    Engines.Engine.Exec.run_keyed ~strategy cache ~pkey ~quirks ~parse_opts
      ~strict ~fuel:Difftest.campaign_fuel
  in
  let changes q =
    let key = (Engines.Engine.testbed_id tb, q, base_sig) in
    match Hashtbl.find_opt memo key with
    | Some b -> b
    | None ->
        let b =
          Difftest.signature_to_string (Difftest.signature_of_result (probe q))
          <> base_sig
        in
        Hashtbl.replace memo key b;
        b
  in
  (* descending quirk order, as the original Set.fold/prepend produced *)
  List.rev (List.filter changes (Quirk.Set.elements dev.Difftest.d_fired))

let default_testbeds () =
  Engines.Engine.latest_testbeds ~mode:Engines.Engine.Normal ()
  @ Engines.Engine.latest_testbeds ~mode:Engines.Engine.Strict ()

(* --- the gather: pull and screen, one kept case at a time --- *)

(* Where the gather stands. It is what a resumed campaign needs to pull
   the same remaining cases from a rebuilt fuzzer, plus the screen's
   tallies. The gather pulls one case at a time and screens it as it
   comes; [3 * (budget - kept)] drops in a row end it, as does a fuzzer
   that runs dry or dies. A cursor is immutable, so every kept case
   carries the cursor just past it. *)
type cursor = {
  cu_pulled : int;  (* cases pulled from the fuzzer *)
  cu_kept : int;  (* cases kept (screened in or repaired) *)
  cu_drops : int;  (* consecutive cases dropped by the screen *)
  cu_screened_out : int;
  cu_reasons : (string * int) list;  (* drop reason -> count, sorted *)
  cu_repaired : int;
  cu_over : bool;  (* the draw has ended *)
  cu_aborted : string option;  (* it ended short of the budget: why *)
}

let cursor0 =
  {
    cu_pulled = 0;
    cu_kept = 0;
    cu_drops = 0;
    cu_screened_out = 0;
    cu_reasons = [];
    cu_repaired = 0;
    cu_over = false;
    cu_aborted = None;
  }

(* A kept case, with its front end (for a case kept as drawn) and the
   cursor just past it. *)
type kept = Testcase.t * Run.frontend option * cursor

(* The live gather around a fuzzer. Not part of any checkpoint: it holds
   the fuzzer's closures. *)
type source = {
  so_fz : fuzzer;
  so_budget : int;
  mutable so_cursor : cursor;  (* the gather's own position *)
  mutable so_counts : int array;
      (* what the gather's pulls moved of every [Cutil.Counter] count:
         the draw is not the campaign's work (a fuzzer's own executions,
         the syntax check's parse), and a case the pool pulled ahead of
         a checkpoint is pulled again on resume *)
}

let source (fz : fuzzer) ~(budget : int) (c : cursor) : source =
  {
    so_fz = fz;
    so_budget = budget;
    so_cursor = c;
    so_counts = Array.map (Fun.const 0) (Cutil.Counter.snapshot ());
  }

let drop (c : cursor) (reason : string) : cursor =
  let rec bump = function
    | (r, n) :: rest when r = reason -> (r, n + 1) :: rest
    | ((r, _) as x) :: rest when r < reason -> x :: bump rest
    | l -> (reason, 1) :: l
  in
  {
    c with
    cu_drops = c.cu_drops + 1;
    cu_screened_out = c.cu_screened_out + 1;
    cu_reasons = bump c.cu_reasons;
  }

(* Pull and screen until the next kept case; [None] once the gather is
   over. A fuzzer that dies (e.g. the generator's refill cap) ends the
   gather gracefully: every case it yielded before dying still runs, and
   the report is marked aborted. *)
let rec gather (so : source) : kept option =
  let c = so.so_cursor in
  let missing = so.so_budget - c.cu_kept in
  let stop aborted =
    so.so_cursor <- { c with cu_over = true; cu_aborted = aborted };
    None
  in
  let short () =
    Some
      (Printf.sprintf "fuzzer exhausted: gathered %d of %d budgeted cases"
         c.cu_kept so.so_budget)
  in
  if c.cu_over then None
  else if missing <= 0 then stop None
  else if c.cu_drops >= 3 * missing then stop (short ())
  else
    match Run.Stage.time Run.Stage.generate so.so_fz.fz_next with
    | exception e -> stop (Some ("fuzzer exhausted: " ^ Printexc.to_string e))
    | None -> stop (short ())
    | Some (tc, fe) -> (
        let c = { c with cu_pulled = c.cu_pulled + 1 } in
        let kept c = { c with cu_kept = c.cu_kept + 1; cu_drops = 0 } in
        match
          Run.Stage.time Run.Stage.screen (fun () ->
              screen_parsed tc (Testcase.program_of fe))
        with
        | S_kept tc ->
            let c = kept c in
            so.so_cursor <- c;
            Some (tc, fe, c)
        | S_repaired tc ->
            (* the front end parsed the unrepaired text *)
            let c = { (kept c) with cu_repaired = c.cu_repaired + 1 } in
            so.so_cursor <- c;
            Some (tc, None, c)
        | S_dropped reason ->
            so.so_cursor <- drop c reason;
            gather so)

(* The next kept case, its pulls' counts set aside. *)
let next (so : source) : kept option =
  let counts0 = Cutil.Counter.snapshot () in
  let x = gather so in
  so.so_counts <- Array.map2 ( + ) so.so_counts (Cutil.Counter.since counts0);
  x

(* The gather of a resumed campaign: a fresh fuzzer of the same name and
   seed is pulled [cu_pulled] times and the cases are discarded. A
   gather that was over needs no fuzzer. *)
let replay (fz : fuzzer) ~(budget : int) (c : cursor) : source =
  if not c.cu_over then
    Run.Stage.time Run.Stage.generate (fun () ->
        for _ = 1 to c.cu_pulled do
          ignore (fz.fz_next ())
        done);
  source fz ~budget c

(* --- the driver state and its checkpoint --- *)

(* Everything the in-order consumption loop needs, whether fresh from
   [run] or loaded from a checkpoint by [resume]: a checkpoint is this
   record itself. Mutable fields are touched only by the driver, in
   submission order. *)
type st = {
  d_fuzzer : string;
  d_seed : int;  (* the fuzzer's, to rebuild it on resume *)
  d_budget : int;
  d_strategy : Strategy.t;
  d_reduce : bool;
  mutable d_counts : int array;
      (* this campaign's share of every [Cutil.Counter] count, brought up
         to date by the driver before every checkpoint and the result *)
  d_testbeds : Engines.Engine.testbed list;  (* sweep order *)
  d_plan : Supervisor.Faultplan.t option;
  d_sup : Supervisor.t option;  (* Some iff supervision is on *)
  mutable d_cursor : cursor;
      (* the gather just past the last consumed case; over once the
         campaign has finished or stopped, with the reason when it ended
         early *)
  mutable d_consumed : int;     (* cases fully consumed, in order *)
  d_filter : Bugfilter.t;
  d_seen : (Engines.Registry.engine * Quirk.t, unit) Hashtbl.t;
  mutable d_discoveries : discovery list;  (* newest first *)
  mutable d_unattributed : int;
  mutable d_timeline : (int * int) list;   (* newest first *)
  mutable d_skipped_cases : int;
}

module Checkpoint = struct
  (* A checkpoint is a versioned header line followed by one [Ipc] frame
     (length, FNV-1a64 checksum, [Marshal] payload) holding the driver
     record [st] itself, so a torn, truncated or bit-flipped file is
     refused before anything is unmarshalled. Everything in it is data —
     values, records and hashtables (testbeds, the fault plan, the
     gather's cursor, Bugfilter.t, Supervisor.t) — with no closures, so
     the default marshal flags suffice and the file survives process
     restarts of the same binary.

     The cases themselves are not stored: the fuzzer's name and seed and
     the gather's cursor rebuild them. A resumed campaign pulls the
     cursor's count of cases from a fresh fuzzer and discards them, so a
     checkpoint's size does not grow with the budget. *)

  let magic = "COMFORT-CKPT"

  (* v2: added the static reachability analysis' switches and its
     seeded-share tally. v3: added the specialisation switches and
     counters (quirk-specialised execution). v4: the state is framed and
     checksummed ([Ipc.encode]) instead of a bare [Marshal]. v5: the
     seven per-layer switches and audit strides became one strategy and
     one audit stride. v6: dropped the seeded-share and inline-cache
     tallies with the mechanisms they counted. v7: quirk sets are
     two-word bitsets, and the supervisor is stored as itself rather
     than as a frozen copy. v8: the driver record is stored as itself —
     testbeds, fault plan and seen table included — and with it the
     early end ([d_aborted], [d_stop]). v9: the compilation and COW
     tallies became one vector of every registered counter. v10: the
     per-testbed fuel left the record; every campaign runs on
     [Difftest.campaign_fuel]. v11: the drawn case list and the screen
     tallies gave way to the fuzzer's seed, the budget and the gather's
     cursor. v12: the cursor counts pulls instead of rounds, and carries
     a testbed-pool exhaustion as its early end in place of [d_aborted]
     and [d_stop]. v13: the supervisor keeps its stats as counters
     bumped in place, and the counter vector holds [campaign.rejudged].
     v14: dropped the audit stride with the audit mode. The header
     check rejects older files rather than guess defaults for fields
     that change what a resumed campaign runs. *)
  let version = 14

  type state = st

  let fuzzer (st : state) = st.d_fuzzer
  let seed (st : state) = st.d_seed

  let describe (st : state) =
    Printf.sprintf "%s: %d/%d cases consumed, %d discoveries"
      st.d_fuzzer st.d_consumed st.d_budget
      (List.length st.d_discoveries)

  (* Write-to-temp plus rename keeps checkpointing atomic: a campaign
     killed mid-save leaves the previous checkpoint intact. The tmp file
     is fsynced before the rename and the directory after it, so a
     host crash cannot publish a torn checkpoint under [path] or lose
     the rename itself; without the first fsync the rename could land
     before the data. (A torn tmp file from a SIGKILL mid-write is
     unreachable by [load] either way — it only ever reads [path].) *)
  let save (path : string) (st : state) : unit =
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Printf.fprintf oc "%s v%d\n" magic version;
        output_string oc (Ipc.encode st);
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    Sys.rename tmp path;
    (* directory fsync is best-effort: some filesystems refuse it *)
    try
      let dfd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close dfd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())
    with Unix.Unix_error _ -> ()

  let load (path : string) : (state, string) Stdlib.result =
    match open_in_bin path with
    | exception Sys_error e -> Error e
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            match input_line ic with
            | exception End_of_file -> Error "empty checkpoint file"
            | header ->
                let expect = Printf.sprintf "%s v%d" magic version in
                if not (String.equal header expect) then
                  Error
                    (Printf.sprintf "bad checkpoint header %S (want %S)"
                       header expect)
                else
                  Result.map_error
                    (fun e -> "corrupt checkpoint: " ^ Ipc.error_to_string e)
                    (Ipc.decode (In_channel.input_all ic)))
end

(* --- the driver loop --- *)

(* What one worker hands back for one case, in-process or across the
   pipe from a forked worker (so plain data: exceptions are not
   Marshal-safe). Every case is judged where it was swept. *)
type work =
  | W_judged of int * Difftest.case_report list
      (* the length of the quarantine roster the case was swept and
         judged against (0 unsupervised), and one report per mode group *)
  | W_failed of string  (* the worker itself blew up: case failed-and-skipped *)

(* One case as the fork pool ships it. [jb_roster] is the driver's
   quarantine roster as of the dispatch ([Some] iff supervision is on):
   the worker sweeps and judges the case against it, as the in-process
   loop does against the roster of the moment. *)
type job = {
  jb_index : int;
  jb_case : Testcase.t;
  jb_roster : (string * int) list option;
}

(* Cases a forked worker judged against a roster that grew while they
   were in flight, judged again on the driver. *)
let rejudged = Cutil.Counter.make "campaign.rejudged"

(* The report: [d_cursor] is the gather's final cursor, and [pool] a
   worker-pool exhaustion, reported when the draw did not end early. *)
let final (d : st) ~(pool : string option) : result =
  let c = d.d_cursor in
  {
    cp_fuzzer = d.d_fuzzer;
    cp_cases_run = d.d_consumed;
    cp_discoveries = List.rev d.d_discoveries;
    cp_filtered_repeats = Bugfilter.filtered_count d.d_filter;
    cp_unattributed = d.d_unattributed;
    cp_timeline = List.rev d.d_timeline;
    cp_screened_out = c.cu_screened_out;
    cp_screen_reasons = c.cu_reasons;
    cp_repaired = c.cu_repaired;
    cp_reach_seeded = 0;
    cp_specialized = Cutil.Counter.at d.d_counts Compile.specialized;
    cp_cow_clones = Cutil.Counter.at d.d_counts Value.cow_clones;
    cp_ic_hits = 0;
    cp_skipped_cases = d.d_skipped_cases;
    cp_faults =
      (match d.d_sup with
      | Some s -> Supervisor.stats s
      | None -> Supervisor.zero_stats);
    cp_quarantined =
      (match d.d_sup with
      | Some s -> Supervisor.quarantine_list s
      | None -> []);
    cp_aborted = (if c.cu_aborted = None then pool else c.cu_aborted);
  }

let drive ~workers ?worker_limits ?checkpoint ?halt_after (d : st)
    (so : source) : result =
  (match checkpoint with
  | Some (_, every) when every <= 0 ->
      invalid_arg "Campaign: checkpoint interval must be positive"
  | _ -> ());
  let by_mode =
    [
      List.filter
        (fun tb -> tb.Engines.Engine.tb_mode = Engines.Engine.Normal)
        d.d_testbeds;
      List.filter
        (fun tb -> tb.Engines.Engine.tb_mode = Engines.Engine.Strict)
        d.d_testbeds;
    ]
    |> List.filter (fun l -> l <> [])
  in
  (* the registry's counts are shared by every campaign in the process,
     so the campaign's share is the checkpointed prior plus this run's
     delta, less what the gather's pulls moved: as when the whole budget
     was drawn before the first sweep, the share is the sweeps' work *)
  let prior = d.d_counts in
  let counts0 = Cutil.Counter.snapshot () in
  (* what the driver's re-judging moved: the case's work was already
     counted where it first ran *)
  let rerun_counts = ref (Array.map (Fun.const 0) counts0) in
  let tally () =
    d.d_counts <-
      Array.map2 ( - )
        (Array.map2 ( + ) prior (Cutil.Counter.since counts0))
        (Array.map2 ( + ) so.so_counts !rerun_counts)
  in
  let roster () = Option.map Supervisor.quarantine_list d.d_sup in
  let length = Option.fold ~none:0 ~some:List.length in
  let save_ck () =
    match checkpoint with
    | Some (path, _) ->
        tally ();
        Checkpoint.save path d;
        Some path
    | None -> None
  in
  (* One case's sweeps and judgements, against [roster]: the driver's
     roster of the moment in-process, the dispatched one in a forked
     worker. [fe] is the draw's front end of a case kept as drawn,
     handed over in-process only. *)
  let sweep ~roster ~(fe : Run.frontend option) (i : int) (tc : Testcase.t) :
      work =
    (* one execution-sharing cache per case, shared by the per-mode-group
       sweeps below: the base parses and their compilations run once
       per case instead of once per group, and the strict group's
       testbeds inherit the normal group's mode-free runs. The cache is
       built and consumed entirely inside this worker call, and every
       inherited result is the one a direct run gives, so reports are
       byte-identical to per-group caches. *)
    let cache =
      let src = tc.Testcase.tc_source in
      match fe with
      | Some fe -> Engines.Engine.Exec.seeded src fe
      | None -> Engines.Engine.Exec.cache src
    in
    (* cases are keyed by their submission index, so the fault draws are
       deterministic — the same at any worker count and across resume *)
    W_judged
      ( length roster,
        List.map
          (fun tbs ->
            Difftest.run_case ~strategy:d.d_strategy ?plan:d.d_plan ?roster
              ~case_key:i ~cache tbs tc)
          by_mode )
  in
  (* runs in the forked child too: a failure travels as its message *)
  let guarded (f : unit -> work) : work =
    match f () with
    | w -> w
    | exception e -> W_failed (Printexc.to_string e)
  in
  (* The per-case differential sweep and vote — the dominant cost — is
     [sweep] above, run in-process or in a forked worker; every stateful
     stage here (the supervisor's observations, Fig. 6 tree, dedup,
     causal attribution, reduction, timeline, checkpointing) runs in the
     driver, in submission order, so the outcome is byte-identical at
     any worker count. [c] is the gather's cursor just past case [i]. *)
  let consume (i : int) (tc : Testcase.t) (c : cursor) (w : work) =
    let rec reports = function
      | W_judged (n, rs) when n = length (roster ()) -> rs
      | W_judged _ ->
          (* the roster only grows, so a testbed was quarantined while
             the case was in flight: judge it again here, against the
             roster of the moment, which is the in-process sweep (the
             kill hook is unarmed on the driver) *)
          Cutil.Counter.incr rejudged;
          let counts0 = Cutil.Counter.snapshot () in
          let w = guarded (fun () -> sweep ~roster:(roster ()) ~fe:None i tc) in
          rerun_counts :=
            Array.map2 ( + ) !rerun_counts (Cutil.Counter.since counts0);
          reports w
      | W_failed _ ->
          d.d_skipped_cases <- d.d_skipped_cases + 1;
          []
    in
    let reports = reports w in
    (* one parse per case, shared by every deviation it produces *)
    let ast =
      lazy
        (match Jsparse.Parser.parse_program tc.Testcase.tc_source with
        | p -> Some p
        | exception Jsparse.Parser.Syntax_error _ -> None)
    in
    (* one execution-sharing cache and one probe memo per case, shared by
       every causal attribution the case's deviations trigger: probes for
       different deviations (and different removed quirks) of the same
       case collapse into shared class representatives instead of
       re-running the interpreter per probe. Built lazily — most cases
       produce no new bug and never pay for either. The worker's own
       sweep cache died with the worker; this one lives on the driver,
       where attribution runs. *)
    let attr_cache =
      lazy (Engines.Engine.Exec.cache tc.Testcase.tc_source)
    in
    let probe_memo : (string * Quirk.t * string, bool) Hashtbl.t =
      Hashtbl.create 8
    in
    List.iter
      (fun (report : Difftest.case_report) ->
        List.iter
          (fun (dev : Difftest.deviation) ->
            let tb = dev.Difftest.d_testbed in
            let engine = tb.Engines.Engine.tb_config.Engines.Registry.cfg_engine in
            let api =
              Run.Stage.time Run.Stage.attr (fun () ->
                  api_of_deviation dev tc ~ast)
            in
            (* developer-facing dedup: the Fig. 6 tree. A repeat of a
               known (engine, api, behaviour) leaf cannot yield a new
               discovery, so the expensive causal re-execution is
               skipped for it *)
            match
              Run.Stage.time Run.Stage.attr (fun () ->
                  Bugfilter.classify d.d_filter
                    ~engine:(Engines.Registry.engine_name engine)
                    ~api ~behavior:dev.Difftest.d_behavior)
            with
            | `Seen_before -> ()
            | `New_bug ->
            if Quirk.Set.is_empty dev.Difftest.d_fired then
              d.d_unattributed <- d.d_unattributed + 1
            else
              let causal =
                Run.Stage.time Run.Stage.attr (fun () ->
                    causal_quirks ~strategy:d.d_strategy
                      ~cache:(Lazy.force attr_cache) ~memo:probe_memo tb dev)
              in
              if causal = [] then d.d_unattributed <- d.d_unattributed + 1
              else
              List.iter
                (fun q ->
                  if not (Hashtbl.mem d.d_seen (engine, q)) then begin
                    Hashtbl.replace d.d_seen (engine, q) ();
                    let reduced =
                      if d.d_reduce then
                        Some
                          (Run.Stage.time Run.Stage.reduce (fun () ->
                               Reducer.reduce
                                 ~still_triggers:
                                   (Reducer.still_triggers_deviation
                                      ~strategy:d.d_strategy tb dev)
                                 tc.Testcase.tc_source))
                      else None
                    in
                    let disc =
                      {
                        disc_engine = engine;
                        disc_quirk = q;
                        disc_case = tc;
                        disc_reduced = reduced;
                        disc_kind = dev.Difftest.d_kind;
                        disc_behavior = dev.Difftest.d_behavior;
                        disc_at = i + 1;
                        disc_version =
                          Option.value
                            (Engines.Registry.earliest_version engine q)
                            ~default:
                              tb.Engines.Engine.tb_config
                                .Engines.Registry.cfg_version;
                        disc_mode = tb.Engines.Engine.tb_mode;
                      }
                    in
                    d.d_discoveries <- disc :: d.d_discoveries
                  end)
                causal)
          report.Difftest.cr_deviations)
      reports;
    d.d_timeline <- (i + 1, Hashtbl.length d.d_seen) :: d.d_timeline;
    d.d_consumed <- i + 1;
    d.d_cursor <- c;
    (* the supervisor folds the case's observations in. Pool-exhaustion
       abort: once no mode group retains two live testbeds, differential
       comparison is impossible and the campaign winds down (remaining
       in-flight results are discarded); only a case that grew the
       roster can bring that about. The draw stops where it stands: the
       report's tallies are this cursor's, at any worker count *)
    (match d.d_sup with
    | Some sup ->
        let n = length (roster ()) in
        List.iter
          (fun (r : Difftest.case_report) ->
            Supervisor.observe sup ~case_key:i r.Difftest.cr_observed)
          reports;
        let survivors tbs =
          List.length
            (List.filter
               (fun tb ->
                 not (Supervisor.quarantined sup (Engines.Engine.testbed_id tb)))
               tbs)
        in
        if
          length (roster ()) > n
          && List.for_all (fun tbs -> survivors tbs < 2) by_mode
        then
          d.d_cursor <-
            {
              c with
              cu_over = true;
              cu_aborted =
                Some
                  "testbed pool exhausted: quarantine left no mode group \
                   with two live testbeds";
            }
    | None -> ());
    let more = i + 1 < d.d_budget && not d.d_cursor.cu_over in
    (match checkpoint with
    | Some (_, every) when (i + 1) mod every = 0 && more ->
        Run.Stage.time Run.Stage.fold (fun () -> ignore (save_ck ()))
    | _ -> ());
    match halt_after with
    | Some n when i + 1 >= n && more ->
        let ck = save_ck () in
        raise (Halted { halted_at = i + 1; halted_checkpoint = ck })
    | _ -> ()
  in
  (* A worker-pool exhaustion ends this run only: it is kept out of [d],
     so the final checkpoint resumes the remaining cases on a fresh
     pool. *)
  let pool_exhausted = ref None in
  let use_workers = workers > 0 && Coordinator.available () in
  if not use_workers then begin
    (* In-process: draw, screen, sweep and consume one case at a time,
       until the draw ends or a testbed-pool exhaustion stops it. *)
    let rec loop () =
      if not d.d_cursor.cu_over then
        match next so with
        | None -> ()
        | Some (tc, fe, c) ->
            let i = c.cu_kept - 1 in
            consume i tc c
              (guarded (fun () -> sweep ~roster:(roster ()) ~fe i tc));
            loop ()
    in
    loop ()
  end
  else begin
    (* Process-isolated fan-out (DESIGN.md §14): the same sweep and the
       same in-submission-order consume, so the report is byte-identical
       to the in-process loop — but a segfaulting, hung or hard-killed
       execution now costs one child process, not the campaign. The pool
       pulls cases from the gather as workers free up, so drawing and
       screening on the driver overlap the sweeps.
       SIGINT/SIGTERM land between consumes: finish the case in hand,
       write a final checkpoint, and surface [Interrupted] so the
       operator kill is always resumable. Installed only around the
       multi-process phase; the previous behaviour is restored even if
       the run raises. *)
    let interrupted = ref None in
    let note_signal name = Sys.Signal_handle (fun _ -> interrupted := Some name) in
    let prev_int = Sys.signal Sys.sigint (note_signal "SIGINT") in
    let prev_term = Sys.signal Sys.sigterm (note_signal "SIGTERM") in
    (* the cursor of each case in the pool, until it is consumed *)
    let cursors : (int, cursor) Hashtbl.t = Hashtbl.create 64 in
    let jobs =
      Seq.of_dispenser (fun () ->
          Option.map
            (fun (tc, _, c) ->
              let i = c.cu_kept - 1 in
              Hashtbl.replace cursors i c;
              { jb_index = i; jb_case = tc; jb_roster = None })
            (next so))
    in
    let worker (jb : job) : work =
      guarded (fun () ->
          sweep ~roster:jb.jb_roster ~fe:None jb.jb_index jb.jb_case)
    in
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigint prev_int;
        Sys.set_signal Sys.sigterm prev_term)
      (fun () ->
        (* children inherit shared immutable state copy-on-write; force
           the expensive lazies now so each child doesn't rebuild them *)
        ignore (Lazy.force Specdb.Db.standard);
        ignore (Lazy.force Lm.Model.comfort);
        try
          Coordinator.with_pool ~workers ?limits:worker_limits ~worker
            (fun pool ->
              Coordinator.run_ordered pool
                ~on_task_fail:(fun _ _ msg -> W_failed msg)
                ~stop:(fun () -> d.d_cursor.cu_over || !interrupted <> None)
                ~at_dispatch:(fun jb -> { jb with jb_roster = roster () })
                jobs
                ~consume:(fun _ jb w ->
                  let c = Hashtbl.find cursors jb.jb_index in
                  Hashtbl.remove cursors jb.jb_index;
                  consume jb.jb_index jb.jb_case c w))
        with Coordinator.Exhausted msg ->
          (* partial report, marked aborted, non-zero CLI exit — never a
             crash *)
          pool_exhausted := Some ("worker pool exhausted: " ^ msg));
    match !interrupted with
    | Some name ->
        let ck = save_ck () in
        raise (Interrupted { int_signal = name; int_at = d.d_consumed; int_checkpoint = ck })
    | None -> ()
  end;
  (* A finished run takes the gather's final cursor; a stopped one
     already holds it. A worker-pool exhaustion keeps the last consumed
     case's cursor, so the checkpoint resumes the rest. *)
  if !pool_exhausted = None && not d.d_cursor.cu_over then
    d.d_cursor <- so.so_cursor;
  tally ();
  (* final checkpoint: resuming a finished campaign is a cheap no-op that
     reproduces its result *)
  Run.Stage.time Run.Stage.fold (fun () ->
      ignore (save_ck ());
      final d ~pool:!pool_exhausted)

let run ?(testbeds = default_testbeds ()) ?(budget = 200) ?(reduce = false)
    ?(workers = 0) ?worker_limits ?strategy ?faults ?checkpoint
    ?halt_after (fz : fuzzer) : result =
  let strategy = Strategy.value strategy in
  let d =
    {
      d_fuzzer = fz.fz_name;
      d_seed = fz.fz_seed;
      d_budget = budget;
      d_strategy = strategy;
      d_reduce = reduce;
      d_counts = Array.map (Fun.const 0) (Cutil.Counter.snapshot ());
      d_testbeds = testbeds;
      d_plan = faults;
      d_sup = Option.map (fun _ -> Supervisor.create ()) faults;
      d_cursor = cursor0;
      d_consumed = 0;
      d_filter = Bugfilter.create ();
      d_seen = Hashtbl.create 64;
      d_discoveries = [];
      d_unattributed = 0;
      d_timeline = [];
      d_skipped_cases = 0;
    }
  in
  drive ~workers ?worker_limits ?checkpoint ?halt_after d
    (source fz ~budget cursor0)

let resume ?(workers = 0) ?worker_limits ?checkpoint ?halt_after
    (d : Checkpoint.state) (fz : fuzzer) : result =
  if fz.fz_name <> d.d_fuzzer || fz.fz_seed <> d.d_seed then
    invalid_arg
      (Printf.sprintf
         "Campaign.resume: the checkpoint was drawn by %s with seed %d, not \
          %s with seed %d"
         d.d_fuzzer d.d_seed fz.fz_name fz.fz_seed);
  drive ~workers ?worker_limits ?checkpoint ?halt_after d
    (replay fz ~budget:d.d_budget d.d_cursor)
