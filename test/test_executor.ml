(* Campaign execution and the per-case front-end cache.

   Two properties matter and each gets direct coverage here:

   - determinism: a campaign on 2 forked workers produces byte-identical
     discoveries, timeline and filter counts to the in-process loop;
   - the front-end cache: one parse per distinct (parse options, mode)
     group per case, and cached runs equal uncached runs field by field. *)

open Helpers
module Engine = Engines.Engine
module Run = Jsinterp.Run

(* --- campaign determinism across worker counts --- *)

(* Everything observable about a discovery except the global test-case id,
   which is an allocation counter and not meaningful across campaigns. *)
let disc_key (d : Comfort.Campaign.discovery) =
  ( Engines.Registry.engine_name d.Comfort.Campaign.disc_engine,
    Jsinterp.Quirk.to_string d.Comfort.Campaign.disc_quirk,
    d.Comfort.Campaign.disc_at,
    d.Comfort.Campaign.disc_behavior,
    d.Comfort.Campaign.disc_version,
    Engine.mode_to_string d.Comfort.Campaign.disc_mode,
    d.Comfort.Campaign.disc_case.Comfort.Testcase.tc_source )

let campaign_is_workers_invariant () =
  let campaign workers =
    Comfort.Campaign.run ~budget:120 ~workers
      (Comfort.Campaign.comfort_fuzzer ~seed:17 ())
  in
  let seq = campaign 0 in
  let par = campaign 2 in
  Alcotest.(check int) "cases run" seq.Comfort.Campaign.cp_cases_run
    par.Comfort.Campaign.cp_cases_run;
  Alcotest.(check bool) "same discoveries in the same order" true
    (List.map disc_key seq.Comfort.Campaign.cp_discoveries
    = List.map disc_key par.Comfort.Campaign.cp_discoveries);
  Alcotest.(check bool) "same timeline" true
    (seq.Comfort.Campaign.cp_timeline = par.Comfort.Campaign.cp_timeline);
  Alcotest.(check int) "same filtered repeats"
    seq.Comfort.Campaign.cp_filtered_repeats
    par.Comfort.Campaign.cp_filtered_repeats;
  Alcotest.(check int) "same unattributed" seq.Comfort.Campaign.cp_unattributed
    par.Comfort.Campaign.cp_unattributed

(* --- front-end cache --- *)

let parse_cache_one_parse_per_group () =
  let src = "print(1 + 1);" in
  let testbeds = Engine.all_testbeds in
  let tc = Comfort.Testcase.make src in
  let before = Jsparse.Parser.parse_count () in
  let report = Comfort.Difftest.run_case testbeds tc in
  let parses = Jsparse.Parser.parse_count () - before in
  Alcotest.(check int) "every testbed ran" (List.length testbeds)
    report.Comfort.Difftest.cr_tested;
  (* a source with no quirky, strict-sensitive or edition-gated syntax
     needs exactly one permissive base parse: both ES profiles and every
     (parse options, mode) group share it, and edition gating reads the
     same parse for free *)
  Alcotest.(check int) "one parse for both base profiles" 1 parses;
  Alcotest.(check bool) "well below one parse per testbed" true
    (parses * 3 < List.length testbeds)

let cached_run_equals_direct_run () =
  (* sources chosen to exercise every cache dimension: plain code, a
     parse-quirk trigger (for-without-body), and a strict-only early
     error (duplicate params) that splits the strict/sloppy groups *)
  let sources =
    [
      "print(1 + 1);";
      "for (var i = 0; i < 3; i++)";
      "function f(a, a) { return a; } print(f(1, 2));";
      "var o = {}; print(delete o);";
    ]
  in
  List.iter
    (fun src ->
      let fc = Engine.Frontend.cache src in
      List.iter
        (fun (tb : Engine.testbed) ->
          let direct = Engine.run ~fuel:100_000 tb src in
          let cached =
            Engine.run ~fuel:100_000
              ~frontend:(Engine.Frontend.frontend fc tb)
              tb src
          in
          let id = Engine.testbed_id tb in
          Alcotest.(check bool) (id ^ " parsed") direct.Run.r_parsed
            cached.Run.r_parsed;
          Alcotest.(check (option string)) (id ^ " parse error")
            direct.Run.r_parse_error cached.Run.r_parse_error;
          Alcotest.(check string) (id ^ " status")
            (Run.status_to_string direct.Run.r_status)
            (Run.status_to_string cached.Run.r_status);
          Alcotest.(check string) (id ^ " output") direct.Run.r_output
            cached.Run.r_output;
          Alcotest.(check (list string)) (id ^ " fired quirks")
            (List.map Jsinterp.Quirk.to_string
               (Jsinterp.Quirk.Set.elements direct.Run.r_fired))
            (List.map Jsinterp.Quirk.to_string
               (Jsinterp.Quirk.Set.elements cached.Run.r_fired)))
        Engine.all_testbeds)
    sources

let supports_verdict_cached () =
  (* an ES2017-only construct: ES5 front ends reject, standard accepts *)
  let src = "var f = async function() {};" in
  let fc = Engine.Frontend.cache src in
  List.iter
    (fun (tb : Engine.testbed) ->
      Alcotest.(check bool)
        (Engine.testbed_id tb ^ " supports matches uncached")
        (Engine.supports tb.Engine.tb_config src)
        (Engine.Frontend.supports fc tb.Engine.tb_config))
    Engine.all_testbeds

(* --- the 2t rule's self-exclusion fix --- *)

let result ~fuel : Run.result =
  {
    Run.r_parsed = true;
    r_parse_error = None;
    r_status = Run.Sts_normal;
    r_output = "x\n";
    r_fuel_used = fuel;
    r_fired = Jsinterp.Quirk.Set.empty;
    r_touched = Jsinterp.Quirk.Set.empty;
    r_coverage = None;
  }

(* The deviations [Difftest.judge] reports for three testbeds that all
   print the same line, burning the given fuel: only a run the 2t rule
   flags can deviate, as a timeout. *)
let judged_deviations fuels =
  let execs =
    List.map2
      (fun tb fuel ->
        (tb, Comfort.Supervisor.Done (result ~fuel, Comfort.Supervisor.ok_meta)))
      (List.filteri (fun i _ -> i < 3) Engine.all_testbeds)
      fuels
  in
  let report =
    Comfort.Difftest.judge
      {
        Comfort.Difftest.sw_case = Comfort.Testcase.make "print(1);";
        sw_supervised = false;
        sw_execs = execs;
      }
  in
  List.map
    (fun (d : Comfort.Difftest.deviation) ->
      (Engine.testbed_id d.Comfort.Difftest.d_testbed, d.Comfort.Difftest.d_kind))
    report.Comfort.Difftest.cr_deviations

let two_equally_slow_engines_not_flagged () =
  (* two engines burn the same high fuel, one is fast. Excluding "other
     engines" by fuel value made each slow run drop the other slow run
     too, so both were falsely flagged; excluding by position keeps each
     one's twin in the comparison pool *)
  Alcotest.(check int) "no run flagged as timeout" 0
    (List.length (judged_deviations [ 100_000; 100_000; 1_000 ]))

let lone_slow_engine_still_flagged () =
  match judged_deviations [ 100_000; 1_000; 2_000 ] with
  | [ (id, Comfort.Difftest.Dev_timeout) ] ->
      Alcotest.(check string) "the slow run is flagged"
        (Engine.testbed_id (List.hd Engine.all_testbeds))
        id
  | devs ->
      Alcotest.failf "want one Dev_timeout, got %d deviations"
        (List.length devs)

let suite =
  [
    case "campaign results are workers-invariant"
      campaign_is_workers_invariant;
    case "one parse per front-end group" parse_cache_one_parse_per_group;
    case "cached runs equal direct runs" cached_run_equals_direct_run;
    case "supports verdict survives caching" supports_verdict_cached;
    case "2t rule: equally slow engines not flagged"
      two_equally_slow_engines_not_flagged;
    case "2t rule: lone slow engine flagged" lone_slow_engine_still_flagged;
  ]
