(* Static checkpoint-reachability analysis (DESIGN.md §11) and the
   compiler's inline checkpoint sites.

   The analysis is a diagnostic ([comfort analyze --quirks]) and an audit
   check; it is useful only while it stays sound (static ⊇ every dynamic
   touched set) and precise. Coverage here:

   - soundness over a handwritten corpus plus a fuzzer batch, asserted
     per front end and via [Difftest.audit_case]'s reach check across all
     102 testbeds;
   - a precision floor: ordinary programs get a strict subset of the
     domain's top, while [eval] collapses to top;
   - the five checkpoint sites the compiler emits inline, and the hot
     property loads and stores of the corpus, field-wise identical under
     Fast and the Reference oracle on every testbed;
   - reports byte-identical under Fast and Reference at the [run_case]
     and full-campaign layers. *)

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
    (* a boolean key stored on an array consults the QuickJS append site *)
    "var a = [1, 2]; a[true] = 3; print(a.length, a[2]);";
    (* hot property traffic: an own load/store loop, prototype loads
       (a constructor's and Object.prototype's) and a method call in a
       loop *)
    {|var o = {a: 1, b: 2};
for (var i = 0; i < 50; i++) o.a = o.a + o.b;
print(o.a);|};
    {|function P() {} P.prototype.k = 3; var p = new P(); var t = 0;
for (var i = 0; i < 30; i++) t += p.k;
Object.prototype.z = 7; var e = {}; print(t, e.z);|};
    {|var c = { n: 0, inc: function () { this.n++; return this.n; } };
for (var i = 0; i < 30; i++) c.inc();
print(c.n);|};
    (* layouts changing in the middle of a loop: a redefined property,
       a frozen receiver and a reassigned prototype property *)
    {|var o = { a: 1 }; var s = 0;
for (var i = 0; i < 20; i++) {
  if (i === 10) Object.defineProperty(o, "a", { value: 100, writable: false });
  o.a = o.a + 1; s += o.a;
}
print(s, o.a);|};
    {|var o = { a: 0 };
for (var i = 0; i < 20; i++) { if (i === 5) Object.freeze(o); o.a++; }
function P() {} P.prototype.k = 1; var p = new P(); var t = 0;
for (var j = 0; j < 10; j++) { if (j === 5) P.prototype.k = 2; t += p.k; }
print(o.a, t);|};
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
               (Run.reach_set ~strict fe)))
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

let compiled_sites_match_reference () =
  (* Fast (the compiled closure, consulting the quirk set at run time)
     against the Reference tree-walk, field-wise, on every testbed: the
     corpus reaches the five inline checkpoint sites and the hot property
     loads and stores *)
  List.iter
    (fun src ->
      List.iter
        (fun (tb : Engine.testbed) ->
          let strict = tb.Engine.tb_mode = Engine.Strict in
          let quirks = tb.Engine.tb_config.Engines.Registry.cfg_quirks in
          let run strategy = Run.run ~quirks ~strict ~strategy src in
          Alcotest.(check (option string))
            (Engine.testbed_id tb ^ " on " ^ src)
            None
            (Run.differing_field (run Strategy.Reference) (run Strategy.Fast)))
        Engine.all_testbeds)
    corpus

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
  (* Fast vs Reference x in-process/2 workers: identical discoveries,
     timeline and filter counts — the acceptance bar in miniature *)
  let campaign ~strategy ~workers =
    Comfort.Campaign.run ~budget:80 ~strategy ~workers
      (Comfort.Campaign.comfort_fuzzer ~seed:23 ())
  in
  let base = campaign ~strategy:Strategy.Reference ~workers:0 in
  List.iter
    (fun workers ->
      let r = campaign ~strategy:Strategy.Fast ~workers in
      let tag = Printf.sprintf "Fast workers=%d" workers in
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
        r.Comfort.Campaign.cp_unattributed)
    [ 0; 2 ]

let campaign_audit_reach_passes () =
  (* every 2nd case runs under both strategies and asserts the soundness
     contract on every Reference run; any violation raises *)
  let r =
    Comfort.Campaign.run ~budget:40 ~audit:2 ~workers:2
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
    case "compiled sites match Reference on all testbeds"
      compiled_sites_match_reference;
    case "run_case reports are reach-invariant" run_case_reach_invariant;
    case "campaigns are reach-invariant" campaign_reach_invariant;
    case "campaign audit-reach mode passes" campaign_audit_reach_passes;
  ]
