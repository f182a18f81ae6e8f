(* Slot-resolved compile-to-closure interpreter core (DESIGN.md §9).

   The tentpole claim mirrors execution sharing's: the Fast strategy's
   compiled core must never change a single observable of the Reference
   tree-walker — status, output, fuel, fired/touched quirk sets,
   coverage — on any testbed, for any program, including every deopt
   path. Coverage here:

   - full-corpus differential parity on the conforming reference with
     coverage recording on;
   - [Difftest.run_case] reports over all 102 testbeds, Fast vs
     Reference, byte-identical for the whole corpus;
   - per-testbed field-wise result parity (no sharing, no voting) for a
     corpus sample and for every deopt fixture;
   - the two deopt rungs: the static per-program rule (an eval mention,
     a delete on a binding, a write to a name some named function
     carries — anywhere in the program, nested functions included), so
     a program runs fully slotted or fully tree-walked, and the dynamic
     computed-eval trap that re-runs tree-walked mid-campaign (the AST
     has no [with] statement, so the classic fourth trigger cannot
     occur);
   - the deopt share on generated traffic, pinned so that a wider rule
     cannot silently move programs onto the tree-walker;
   - realm isolation: builtin mutations must not leak between Fast
     executions, which share the process's copy-on-write realm template;
   - campaign-level invariance, the bench acceptance check in miniature. *)

open Helpers
open Jsinterp
module Engine = Engines.Engine

let parse src = Jsparse.Parser.parse_program src

(* Field-wise result equality; [Quirk.Set.t] needs its own equal and the
   coverage summary is a plain record. *)
let results_agree tag (tree : Run.result) (compiled : Run.result) =
  Alcotest.(check bool) (tag ^ ": parsed") tree.Run.r_parsed compiled.Run.r_parsed;
  Alcotest.(check (option string))
    (tag ^ ": parse error") tree.Run.r_parse_error compiled.Run.r_parse_error;
  Alcotest.(check string) (tag ^ ": status")
    (Run.status_to_string tree.Run.r_status)
    (Run.status_to_string compiled.Run.r_status);
  Alcotest.(check string) (tag ^ ": output") tree.Run.r_output compiled.Run.r_output;
  Alcotest.(check int) (tag ^ ": fuel") tree.Run.r_fuel_used compiled.Run.r_fuel_used;
  Alcotest.(check bool) (tag ^ ": fired") true
    (Quirk.Set.equal tree.Run.r_fired compiled.Run.r_fired);
  Alcotest.(check bool) (tag ^ ": touched") true
    (Quirk.Set.equal tree.Run.r_touched compiled.Run.r_touched);
  Alcotest.(check bool) (tag ^ ": coverage") true
    (tree.Run.r_coverage = compiled.Run.r_coverage)

(* --- corpus parity --- *)

let corpus_parity_reference () =
  List.iteri
    (fun i src ->
      let tree = Run.run ~coverage:true ~strategy:Strategy.Reference src in
      let compiled = Run.run ~coverage:true ~strategy:Strategy.Fast src in
      results_agree (Printf.sprintf "corpus[%d]" i) tree compiled)
    Lm.Js_corpus.programs

let corpus_run_case_resolve_invariant () =
  (* the differential report over all 102 testbeds — votes, deviations,
     fired sets — must be byte-identical with the compiled core on *)
  List.iteri
    (fun i src ->
      let tc = Comfort.Testcase.make src in
      let compiled =
        Comfort.Difftest.run_case ~strategy:Strategy.Fast Engine.all_testbeds tc
      in
      let tree =
        Comfort.Difftest.run_case ~strategy:Strategy.Reference Engine.all_testbeds tc
      in
      Alcotest.(check bool)
        (Printf.sprintf "corpus[%d]: reports equal" i)
        true
        (Test_sharing.report_equal compiled tree))
    Lm.Js_corpus.programs

(* every 9th corpus program, field-checked on every individual testbed
   with sharing and voting out of the way *)
let corpus_sample_parity_all_testbeds () =
  let sample =
    List.filteri (fun i _ -> i mod 9 = 0) Lm.Js_corpus.programs
  in
  List.iteri
    (fun i src ->
      List.iter
        (fun tb ->
          let tag =
            Printf.sprintf "sample[%d] %s" i (Engine.testbed_id tb)
          in
          let tree = Engine.run ~strategy:Strategy.Reference tb src in
          let compiled = Engine.run ~strategy:Strategy.Fast tb src in
          results_agree tag tree compiled)
        Engine.all_testbeds)
    sample

(* --- the deopt boundary --- *)

(* Each fixture names the deopt mechanism it exercises. The AST has no
   [with] statement (the parser rejects it), so the classic fourth
   dynamic-scope trigger cannot arise. *)
let deopt_fixtures =
  [
    ( "direct eval introducing a var (program deopt)",
      {|eval("var hidden = 41;");
print(hidden + 1);|} );
    ( "eval mentioned but unreached (program deopt)",
      {|var f = function () { return eval("1 + 1"); };
print("never called: " + (typeof f));|} );
    ( "top-level delete on a binding (program deopt)",
      {|var gone = 1;
print(delete gone);
print(typeof gone);|} );
    ( "delete on a binding inside a function (program deopt)",
      {|var keep = 7;
function zap() { return delete keep; }
print(zap());
print(keep);|} );
    ( "named funcexpr frozen-name mutation (program deopt)",
      {|var f = function self() {
  self = "overwritten";
  return typeof self;
};
print(f());|} );
    ( "for-in over a frozen name (program deopt)",
      {|var f = function self() {
  for (self in { a: 1 }) { }
  return typeof self;
};
print(f());|} );
    ( "write to a function's name outside its body (program deopt)",
      {|var f = function g() { return typeof g; };
g = 1;
print(f(), g);|} );
    ( "delete on a binding two functions deep in an arrow (program deopt)",
      {|var x = 1;
var a = () => {
  function f() {
    function h() { return delete x; }
    return h();
  }
  return f();
};
print(a(), typeof x);|} );
    ( "computed eval the static scan misses (dynamic trap)",
      {|var name = "ev" + "al";
this[name]("var sneaky = 5;");
print(sneaky);|} );
  ]

let deopt_fixtures_reach_parity () =
  List.iter
    (fun (tag, src) ->
      (* reference with coverage, plus a quirked testbed sweep: deopted
         and trap re-runs must stay bit-for-bit too *)
      let tree = Run.run ~coverage:true ~strategy:Strategy.Reference src in
      let compiled = Run.run ~coverage:true ~strategy:Strategy.Fast src in
      results_agree tag tree compiled;
      List.iter
        (fun tb ->
          let tree = Engine.run ~strategy:Strategy.Reference tb src in
          let compiled = Engine.run ~strategy:Strategy.Fast tb src in
          results_agree (tag ^ " @ " ^ Engine.testbed_id tb) tree compiled)
        Engine.all_testbeds)
    deopt_fixtures

let frozen_name_quirk_parity () =
  (* the frozen-name mutation deopt must preserve the quirk fork: on a
     conforming engine assignment is a silent no-op (sloppy) or throws
     (strict); with Q_named_funcexpr_binding_mutable it lands *)
  let src =
    {|var f = function self() { self = 1; return typeof self; };
print(f());|}
  in
  let quirks = quirks_of [ Quirk.Q_named_funcexpr_binding_mutable ] in
  List.iter
    (fun qs ->
      let tree = Run.run ~quirks:qs ~strategy:Strategy.Reference src in
      let compiled = Run.run ~quirks:qs ~strategy:Strategy.Fast src in
      results_agree
        (Printf.sprintf "frozen mutation, %d quirks" (Quirk.Set.cardinal qs))
        tree compiled)
    [ Quirk.Set.empty; quirks ];
  Alcotest.(check string) "quirk flips the binding" "number\n"
    (Run.run ~quirks ~strategy:Strategy.Fast src).Run.r_output;
  Alcotest.(check string) "conforming keeps it frozen" "function\n"
    (Run.run ~strategy:Strategy.Fast src).Run.r_output

(* --- static compile classification --- *)

let compile_classifies_programs () =
  let slotted src = (Compile.compile (parse src)).Compile.cp_slotted in
  Alcotest.(check bool) "plain program is slotted" true
    (slotted "var x = 1; print(x);");
  Alcotest.(check bool) "eval mention deopts the program" false
    (slotted "eval(\"1\");");
  Alcotest.(check bool) "member eval deopts the program" false
    (slotted "this[\"eval\"](\"1\");");
  Alcotest.(check bool) "top-level delete-ident deopts the program" false
    (slotted "var x = 1; delete x;");
  Alcotest.(check bool) "plain functions stay compiled" true
    (slotted "function f() { return 1; } print(f());");
  Alcotest.(check bool) "delete-on-binding in a function deopts the program"
    false
    (slotted "var y = 1; function f() { return delete y; } print(f());");
  Alcotest.(check bool) "frozen-name mutation deopts the program" false
    (slotted "var f = function self() { self = 1; }; f();");
  Alcotest.(check bool) "a for-in binder on a function's name deopts" false
    (slotted "var f = function self() { for (self in {}) {} }; f();");
  Alcotest.(check bool) "a write to a function's name outside it deopts" false
    (slotted "var f = function g() {}; g = 1;");
  Alcotest.(check bool) "delete two functions deep in an arrow deopts" false
    (slotted
       "var x = 1; var a = () => { function f() { function h() { return \
        delete x; } } };");
  Alcotest.(check bool) "writes to names no function carries stay slotted"
    true
    (slotted
       "var g = 1; g = 2; g++; for (g in {}) {} var f = function h() { \
        return delete g.p; }; print(f(), g);")

(* The deopt share on generated traffic: of the first 300 pulls of
   comfort and fuzzilli at seeds 1-4, the programs the compiler leaves to
   the tree-walker. The counts are those of the three-rung ladder this
   rule replaced (whole-program deopts plus programs with a per-function
   deopt), 82 in all; a wider rule would silently move programs onto the
   slower tree-walker and fail here. *)
let deopt_share_on_traffic () =
  let deopted (fz : Comfort.Campaign.fuzzer) =
    let n = ref 0 in
    for _ = 1 to 300 do
      match fz.Comfort.Campaign.fz_next () with
      | Some (_, Some { Run.fe_program = Ok p; _ }) ->
          if not (Compile.compile p).Compile.cp_slotted then incr n
      | Some _ -> ()
      | None -> Alcotest.fail "the stream ran dry"
    done;
    !n
  in
  let seeds = [ 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "comfort: tree-walked per seed" [ 0; 9; 18; 9 ]
    (List.map
       (fun seed -> deopted (Comfort.Campaign.comfort_fuzzer ~seed ()))
       seeds);
  Alcotest.(check (list int)) "fuzzilli: tree-walked per seed" [ 10; 17; 8; 11 ]
    (List.map (fun seed -> deopted (Baselines.Fuzzers.fuzzilli ~seed ())) seeds)

(* The eval scan is syntactic: an [eval] reference deopts the program
   even where a local binding shadows the builtin. Tree-walking a
   program that never reaches the builtin costs speed, never behaviour. *)
let local_eval_is_tree_walked () =
  let src =
    {|function twice(x) {
  var eval = function (y) { return y * 2; };
  return eval(x);
}
print(twice(21));|}
  in
  Alcotest.(check bool) "a locally bound eval deopts the program" false
    (Compile.compile (parse src)).Compile.cp_slotted;
  let tree = Run.run ~coverage:true ~strategy:Strategy.Reference src in
  let fast = Run.run ~coverage:true ~strategy:Strategy.Fast src in
  results_agree "local eval" tree fast;
  Alcotest.(check string) "the local binding is called" "42\n" fast.Run.r_output;
  List.iter
    (fun tb ->
      results_agree
        ("local eval @ " ^ Engine.testbed_id tb)
        (Engine.run ~strategy:Strategy.Reference tb src)
        (Engine.run ~strategy:Strategy.Fast tb src))
    Engine.all_testbeds

let dynamic_trap_still_counts_one_execution () =
  (* the tree re-run after [Deopt_to_tree] replays the same program; it
     must not inflate the executions-per-case accounting that the
     sharing bench reports *)
  let src = {|var n = "ev" + "al"; this[n]("var v = 3;"); print(v);|} in
  let before = Run.run_count () in
  let r = Run.run ~strategy:Strategy.Fast src in
  Alcotest.(check int) "one execution recorded" (before + 1) (Run.run_count ());
  Alcotest.(check string) "trap produced the eval effect" "3\n" r.Run.r_output

(* --- realm isolation --- *)

let realm_snapshots_are_isolated () =
  (* a Fast execution borrows the process's realm template behind the
     copy-on-write barrier; builtin mutations must die with the
     execution *)
  let vandal =
    {|String.prototype.charAt = function () { return "Z"; };
Array.prototype.extra = 1;
print("a".charAt(0));|}
  in
  let probe = {|print("a".charAt(0)); print([].extra);|} in
  Alcotest.(check string) "vandal sees its own mutation" "Z\n"
    (Run.run ~strategy:Strategy.Fast vandal).Run.r_output;
  Alcotest.(check string) "vandal again, fresh realm" "Z\n"
    (Run.run ~strategy:Strategy.Fast vandal).Run.r_output;
  Alcotest.(check string) "later execution is unaffected" "a\nundefined\n"
    (Run.run ~strategy:Strategy.Fast probe).Run.r_output;
  (* and the borrowed realm itself is indistinguishable from a freshly
     installed one *)
  results_agree "probe parity"
    (Run.run ~coverage:true ~strategy:Strategy.Reference probe)
    (Run.run ~coverage:true ~strategy:Strategy.Fast probe)

(* --- campaign-level invariance --- *)

let disc_key (d : Comfort.Campaign.discovery) =
  ( Engines.Registry.engine_name d.Comfort.Campaign.disc_engine,
    Quirk.to_string d.Comfort.Campaign.disc_quirk,
    d.Comfort.Campaign.disc_at,
    d.Comfort.Campaign.disc_behavior,
    d.Comfort.Campaign.disc_mode )

let campaign_resolve_invariant () =
  (* Fast vs Reference on one seed: same discoveries, timeline and filter
     counts — the bench's identical_results check in miniature *)
  let campaign strategy =
    Comfort.Campaign.run ~budget:80 ~strategy ~workers:0
      (Comfort.Campaign.comfort_fuzzer ~seed:31 ())
  in
  let base = campaign Strategy.Reference in
  let r = campaign Strategy.Fast in
  Alcotest.(check bool) "same discoveries" true
    (List.map disc_key r.Comfort.Campaign.cp_discoveries
    = List.map disc_key base.Comfort.Campaign.cp_discoveries);
  Alcotest.(check bool) "same timeline" true
    (r.Comfort.Campaign.cp_timeline = base.Comfort.Campaign.cp_timeline);
  Alcotest.(check int) "same filtered repeats"
    base.Comfort.Campaign.cp_filtered_repeats
    r.Comfort.Campaign.cp_filtered_repeats

let deopt_fixtures_sweep_equal () =
  (* the Fast = Reference sweep must hold on every deopt path too *)
  List.iter (fun (_, src) -> Test_sharing.check_sweep src) deopt_fixtures

let suite =
  [
    case "corpus: reference parity with coverage" corpus_parity_reference;
    case "corpus: run_case reports are resolve-invariant"
      corpus_run_case_resolve_invariant;
    case "corpus sample: per-testbed field parity"
      corpus_sample_parity_all_testbeds;
    case "deopt fixtures: parity on reference and all testbeds"
      deopt_fixtures_reach_parity;
    case "frozen-name mutation quirk forks identically"
      frozen_name_quirk_parity;
    case "compile classifies slotted/deopted programs"
      compile_classifies_programs;
    case "compile: the deopt share on generated traffic is pinned"
      deopt_share_on_traffic;
    case "compile: a locally bound eval is tree-walked, same results"
      local_eval_is_tree_walked;
    case "dynamic eval trap counts as one execution"
      dynamic_trap_still_counts_one_execution;
    case "realm snapshots are isolated" realm_snapshots_are_isolated;
    case "campaigns are resolve-invariant" campaign_resolve_invariant;
    case "deopt fixtures: Fast sweep = Reference sweep"
      deopt_fixtures_sweep_equal;
  ]
