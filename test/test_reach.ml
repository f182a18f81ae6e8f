(* Static checkpoint-reachability analysis (DESIGN.md §11).

   The analysis is useful only while it stays sound (static ⊇ every
   dynamic touched set) and pays off only while it stays precise enough
   to fold and pre-partition anything. Coverage here:

   - soundness over a handwritten corpus plus a fuzzer batch, asserted
     per front end and via [Difftest.audit_case]'s reach check across all
     102 testbeds;
   - a precision floor: ordinary programs get a strict subset of the
     domain's top, while [eval] collapses to top;
   - the compiler's constant-folding of statically-unreachable
     consultation sites, invisible in results;
   - execution counts and reports byte-identical with the analysis on or
     off (the sweep cache against the probe cache, and Fast against the
     Reference oracle), at the [Exec] sweep, [run_case] and
     full-campaign layers, with the reach-seeded fast path actually
     engaging. *)

open Helpers
open Jsinterp
module Engine = Engines.Engine
module Reach = Analysis.Reach

(* quirk-rich §5.2-flavoured traffic, parse failures, strict-only
   behaviour, steering control flow — the same spread the sharing suite
   sweeps, plus sources aimed at the five compiled consultation sites *)
let corpus =
  [
    "print(1 + 1);";
    {|var s = "abc".charAt(-1);
if (s !== "") print([3,1,2].sort());
else print("no");|};
    {|var o = { a: 1 }; print(Object.keys(o));
print("anA".split(/^A/)); print((-634619).toFixed(2));
print([10,9,1].sort()); print("abc".charAt(-1) === "");|};
    {|var foo = function(num) { var p = num.toFixed(-2); print(p); };
foo(-634619);|};
    "for (var i = 0; i < 3; i++)";
    "function f(a, a) { return a; } print(f(1, 2));";
    (* unary negation reaching 0 consults the neg-zero codegen site *)
    "var z = 0; print(1 / -z);";
    (* named function expression rebinding consults the NFE site *)
    {|var f = function g() { g = 1; return typeof g; }; print(f());|};
    (* += string append in a loop consults the optimizer-drop site *)
    {|var s = ""; for (var i = 0; i < 200; i++) s += "x";
print(s.length);|};
    {|"use strict"; function f() { return this; } print(f() === undefined);|};
  ]

let sound_on_every_frontend () =
  (* static ⊇ dynamic touched, per parse group, under quirk sets drawn
     from real testbeds *)
  List.iter
    (fun src ->
      List.iter
        (fun (tb : Engine.testbed) ->
          let strict = tb.Engine.tb_mode = Engine.Strict in
          let quirks = tb.Engine.tb_config.Engines.Registry.cfg_quirks in
          let fe =
            Run.parse_frontend ~quirks ~strict
              ~parse_opts:(Engines.Registry.parse_opts_of_config tb.Engine.tb_config)
              src
          in
          let ex = Run.run_exec ~quirks ~strict ~frontend:fe src in
          Alcotest.(check bool)
            (Printf.sprintf "%s sound on %s" (Engine.testbed_id tb) src)
            true
            (Quirk.Set.subset ex.Run.ex_result.Run.r_touched
               (Run.reach_set fe)))
        Engine.all_testbeds)
    corpus

let audit_accepts_corpus () =
  (* the production audit: every testbed's Reference execution checked
     against the static set, and against the Fast sweep *)
  List.iter
    (fun src ->
      ignore
        (Comfort.Difftest.audit_case Engine.all_testbeds
           (Comfort.Testcase.make src)))
    corpus

let audit_accepts_fuzzer_batch () =
  let batch = (Comfort.Campaign.comfort_fuzzer ~seed:7 ()).Comfort.Campaign.fz_batch 15 in
  Alcotest.(check bool) "batch non-empty" true (List.length batch >= 15);
  List.iter
    (fun tc -> ignore (Comfort.Difftest.audit_case Engine.all_testbeds tc))
    batch

let precision_floor () =
  (* the analysis must actually narrow: on ordinary programs the static
     set is a strict subset of top, never top itself *)
  let narrowed =
    List.filter
      (fun src ->
        let s = Reach.checkpoints_src src in
        (not (Reach.is_top s)) && Quirk.Set.cardinal s < Quirk.Set.cardinal Reach.top)
      corpus
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d corpus programs narrowed" (List.length narrowed)
       (List.length corpus))
    true
    (List.length narrowed >= 8);
  (* a trivial program's set is small in absolute terms too *)
  Alcotest.(check bool) "print(1+1) reaches < a quarter of the domain" true
    (Quirk.Set.cardinal (Reach.checkpoints_src "print(1 + 1);") * 4
    < Quirk.Set.cardinal Reach.top)

let dynamic_constructs_are_top () =
  Alcotest.(check bool) "eval is top" true
    (Reach.is_top (Reach.checkpoints_src "eval('print(1)');"));
  Alcotest.(check bool) "indirect eval is top" true
    (Reach.is_top (Reach.checkpoints_src "var e = eval; e('1');"))

let strict_widens () =
  List.iter
    (fun src ->
      Alcotest.(check bool) (src ^ ": strict set widens the sloppy set") true
        (Quirk.Set.subset
           (Reach.checkpoints_src src)
           (Reach.checkpoints_src ~strict:true src)))
    corpus

let compiler_folds_unreachable_sites () =
  let prog s =
    match (Run.parse_frontend s).Run.fe_program with
    | Ok p -> p
    | Error _ -> Alcotest.fail ("corpus program failed to parse: " ^ s)
  in
  let p = prog "print(1);" in
  let cell = Quirk.Set.empty in
  let none = Compile.compile ~cell p in
  Alcotest.(check bool) "slotted" true none.Compile.cp_slotted;
  Alcotest.(check int) "no reach set: nothing folded" 0 none.Compile.cp_folded;
  let all = Compile.compile ~reach:Reach.top ~cell p in
  Alcotest.(check int) "top reach set: nothing folded" 0 all.Compile.cp_folded;
  let empty = Compile.compile ~reach:Quirk.Set.empty ~cell p in
  Alcotest.(check int) "empty reach set: every inline site folded"
    (Quirk.Set.cardinal Compile.compiled_checkpoints)
    empty.Compile.cp_folded

let folding_preserves_results () =
  (* reach on vs off under Fast, and both against Reference, field-wise,
     across testbed quirk sets: the folds a *sound* reach set licenses
     must be invisible *)
  List.iter
    (fun src ->
      List.iter
        (fun (tb : Engine.testbed) ->
          let strict = tb.Engine.tb_mode = Engine.Strict in
          let quirks = tb.Engine.tb_config.Engines.Registry.cfg_quirks in
          let fast reach =
            Run.run ~quirks ~strict ~strategy:Strategy.Fast ~reach src
          in
          let reference =
            Run.run ~quirks ~strict ~strategy:Strategy.Reference src
          in
          let id = Engine.testbed_id tb ^ " on " ^ src in
          List.iter
            (fun (tag, r) ->
              Alcotest.(check (option string)) (id ^ ": " ^ tag) None
                (Run.differing_field reference r))
            [ ("reach on", fast true); ("reach off", fast false) ])
        (Engine.latest_testbeds ()))
    corpus

let sweep_executes_identically () =
  (* the PR 3 fixpoint is already execution-optimal; the reach partition
     may only change the lookup path, never the execution count *)
  List.iter
    (fun src ->
      let sweep make_cache =
        let before = Run.run_count () in
        let ec = make_cache src in
        List.iter
          (fun tb ->
            ignore (Engine.Exec.run ~fuel:100_000 ~strategy:Strategy.Fast ec tb))
          Engine.all_testbeds;
        let executed, shared = Engine.Exec.stats ec in
        (executed, shared, Run.run_count () - before, Engine.Exec.seeded ec)
      in
      let ex_off, sh_off, runs_off, seeded_off = sweep Engine.Exec.probe_cache in
      let ex_on, sh_on, runs_on, seeded_on = sweep Engine.Exec.cache in
      Alcotest.(check int) (src ^ ": same executions") ex_off ex_on;
      Alcotest.(check int) (src ^ ": same shares") sh_off sh_on;
      Alcotest.(check int) (src ^ ": same interpreter runs") runs_off runs_on;
      Alcotest.(check int) (src ^ ": analysis off never seeds") 0 seeded_off;
      Alcotest.(check bool) (src ^ ": seeded is a subset of shares") true
        (seeded_on <= sh_on))
    corpus;
  (* on quirk-rich traffic the fast path must actually engage *)
  let ec =
    Engine.Exec.cache
      {|print([10,9,1].sort()); print("abc".charAt(-1));
print((0.1).toFixed(1));|}
  in
  List.iter
    (fun tb ->
      ignore (Engine.Exec.run ~fuel:100_000 ~strategy:Strategy.Fast ec tb))
    Engine.all_testbeds;
  Alcotest.(check bool) "reach-seeded shares happen" true
    (Engine.Exec.seeded ec > 0)

let run_case_reach_invariant () =
  List.iter
    (fun src ->
      let tc = Comfort.Testcase.make src in
      let run strategy =
        Comfort.Difftest.run_case ~strategy Engine.all_testbeds tc
      in
      Alcotest.(check bool) (src ^ ": reports equal") true
        (Comfort.Difftest.report_equal (run Strategy.Fast)
           (run Strategy.Reference)))
    corpus

let disc_key (d : Comfort.Campaign.discovery) =
  ( Engines.Registry.engine_name d.Comfort.Campaign.disc_engine,
    Quirk.to_string d.Comfort.Campaign.disc_quirk,
    d.Comfort.Campaign.disc_at,
    d.Comfort.Campaign.disc_behavior,
    d.Comfort.Campaign.disc_mode )

let campaign_reach_invariant () =
  (* Fast (reach-seeded) vs Reference x jobs: identical discoveries,
     timeline and filter counts — the acceptance bar in miniature *)
  let campaign ~strategy ~jobs =
    Comfort.Campaign.run ~budget:80 ~strategy ~jobs
      (Comfort.Campaign.comfort_fuzzer ~seed:23 ())
  in
  let base = campaign ~strategy:Strategy.Reference ~jobs:1 in
  Alcotest.(check int) "Reference never seeds" 0
    base.Comfort.Campaign.cp_reach_seeded;
  List.iter
    (fun jobs ->
      let r = campaign ~strategy:Strategy.Fast ~jobs in
      let tag = Printf.sprintf "Fast jobs=%d" jobs in
      Alcotest.(check bool) (tag ^ ": same discoveries") true
        (List.map disc_key r.Comfort.Campaign.cp_discoveries
        = List.map disc_key base.Comfort.Campaign.cp_discoveries);
      Alcotest.(check bool) (tag ^ ": same timeline") true
        (r.Comfort.Campaign.cp_timeline = base.Comfort.Campaign.cp_timeline);
      Alcotest.(check int) (tag ^ ": same filtered repeats")
        base.Comfort.Campaign.cp_filtered_repeats
        r.Comfort.Campaign.cp_filtered_repeats;
      Alcotest.(check int) (tag ^ ": same unattributed")
        base.Comfort.Campaign.cp_unattributed
        r.Comfort.Campaign.cp_unattributed;
      Alcotest.(check bool) (tag ^ ": fast path engaged") true
        (r.Comfort.Campaign.cp_reach_seeded > 0))
    [ 1; 4 ]

let campaign_audit_reach_passes () =
  (* every 2nd case runs under both strategies and asserts the soundness
     contract on every Reference run; any violation raises *)
  let r =
    Comfort.Campaign.run ~budget:40 ~audit:2 ~jobs:2
      (Comfort.Campaign.comfort_fuzzer ~seed:29 ())
  in
  Alcotest.(check int) "campaign completed" 40 r.Comfort.Campaign.cp_cases_run

let suite =
  [
    case "static reach is sound on every front end" sound_on_every_frontend;
    case "audit reach check accepts the corpus" audit_accepts_corpus;
    case "audit reach check accepts a fuzzer batch" audit_accepts_fuzzer_batch;
    case "precision floor: ordinary programs narrow" precision_floor;
    case "eval collapses to top" dynamic_constructs_are_top;
    case "strict analysis widens the sloppy one" strict_widens;
    case "compiler folds statically-unreachable sites"
      compiler_folds_unreachable_sites;
    case "folding preserves results field-wise" folding_preserves_results;
    case "sweeps execute identically with reach on/off"
      sweep_executes_identically;
    case "run_case reports are reach-invariant" run_case_reach_invariant;
    case "campaigns are reach-invariant" campaign_reach_invariant;
    case "campaign audit-reach mode passes" campaign_audit_reach_passes;
  ]
