(* Execution sharing (DESIGN.md §8) and the Fast = Reference contract.

   The tentpole claim is behavioural: the Fast strategy — the
   102-testbed sweep collapsed into quirk-reachability equivalence
   classes, executed on specialised compiled closures in copy-on-write
   realms with recycled scratch — must never change a single observable
   result of the Reference oracle. Coverage here:

   - the [Run.shares_class] fixpoint on a program where one quirk's
     firing steers control flow into a second quirk checkpoint — the
     exact situation where predicting reachability instead of observing
     it would be unsound;
   - the Fast [Engine.Exec] sweep vs Reference [Engine.run] over all 102
     testbeds and the reference engine, field-wise, plus the
     executed/shared accounting and the >=4x execution reduction;
   - strict testbeds inheriting sloppy runs: one fixture per site that
     forcing the program strict would change, and the shadow
     strict-this-is-global checkpoint of a plain call;
   - the five checkpoint sites the compiler emits inline, and hot
     property loads and stores, field-wise identical under a direct Fast
     run and a direct Reference run on every testbed;
   - [Difftest.run_case] and full [Campaign.run]s under both strategies
     in-process and on 2 forked workers, byte-identical reports
     throughout, with the campaigns' execution, fold and allocation
     bounds;
   - the pulls of a seed-5 campaign of the Comfort, Fuzzilli and DIE
     fuzzers, and a fixed-seed property over their programs. *)

open Helpers
open Jsinterp
module Engine = Engines.Engine

(* charAt(-1) normally yields "", so the sort checkpoint below is only
   reached when Q_charat_negative_wraps fires and flips the branch *)
let steering_src =
  {|var s = "abc".charAt(-1);
if (s !== "") print([3,1,2].sort());
else print("no");|}

let fixpoint_splits_on_exposed_checkpoint () =
  (* representative without quirks: the charAt checkpoint is consulted,
     the sort checkpoint is unreachable *)
  let rep = Run.run_exec ~quirks:Quirk.Set.empty steering_src in
  Alcotest.(check bool) "charAt checkpoint touched" true
    (Quirk.Set.mem Quirk.Q_charat_negative_wraps
       rep.Run.ex_touched);
  Alcotest.(check bool) "sort checkpoint not reached" false
    (Quirk.Set.mem Quirk.Q_array_sort_numeric_default
       rep.Run.ex_touched);
  (* a config where the charAt quirk is present differs on a touched
     checkpoint: it must split into its own class *)
  Alcotest.(check bool) "charAt config splits" false
    (Run.shares_class ~strict:false
       ~quirks:(quirks_of [ Quirk.Q_charat_negative_wraps ])
       rep);
  (* a config differing only in the unreached sort quirk shares *)
  Alcotest.(check bool) "sort-only config shares" true
    (Run.shares_class ~strict:false
       ~quirks:(quirks_of [ Quirk.Q_array_sort_numeric_default ])
       rep);
  (* the split representative reaches the second checkpoint... *)
  let rep2 =
    Run.run_exec
      ~quirks:(quirks_of [ Quirk.Q_charat_negative_wraps ])
      steering_src
  in
  Alcotest.(check bool) "firing charAt exposes the sort checkpoint" true
    (Quirk.Set.mem Quirk.Q_array_sort_numeric_default
       rep2.Run.ex_touched);
  (* ...so a config that also carries the sort quirk splits again, while
     one differing only in a still-unreached quirk shares *)
  Alcotest.(check bool) "charAt+sort splits from charAt" false
    (Run.shares_class ~strict:false
       ~quirks:
         (quirks_of
            [ Quirk.Q_charat_negative_wraps; Quirk.Q_array_sort_numeric_default ])
       rep2);
  Alcotest.(check bool) "charAt+unreached quirk shares" true
    (Run.shares_class ~strict:false
       ~quirks:
         (quirks_of
            [ Quirk.Q_charat_negative_wraps; Quirk.Q_tofixed_no_rangeerror ])
       rep2)

let shared_result_equals_direct_result () =
  (* a member inheriting [rep2]'s execution must get exactly the result a
     direct run under its own quirk set produces *)
  let quirks =
    quirks_of [ Quirk.Q_charat_negative_wraps; Quirk.Q_tofixed_no_rangeerror ]
  in
  let fe = Run.parse_frontend ~quirks steering_src in
  let rep2 =
    Run.run_exec
      ~quirks:(quirks_of [ Quirk.Q_charat_negative_wraps ])
      ~frontend:fe steering_src
  in
  let shared = Run.share ~frontend:fe ~quirks ~strict:false rep2 in
  let direct = Run.run ~quirks steering_src in
  Alcotest.(check string) "output" direct.Run.r_output shared.Run.r_output;
  Alcotest.(check string) "status"
    (Run.status_to_string direct.Run.r_status)
    (Run.status_to_string shared.Run.r_status);
  Alcotest.(check int) "fuel" direct.Run.r_fuel_used shared.Run.r_fuel_used;
  Alcotest.(check bool) "fired" true
    (Quirk.Set.equal direct.Run.r_fired shared.Run.r_fired);
  Alcotest.(check bool) "touched" true
    (Quirk.Set.equal direct.Run.r_touched shared.Run.r_touched)

let run_count_counts_real_executions () =
  let before = Run.run_count () in
  ignore (Run.run "print(1);");
  Alcotest.(check int) "a direct run is one execution" (before + 1)
    (Run.run_count ());
  (* parse failures never reach the interpreter *)
  ignore (Run.run "var = ;");
  Alcotest.(check int) "a parse failure is no execution" (before + 1)
    (Run.run_count ())

let differing_field_names_each_field () =
  (* the comparison is the whole Fast = Reference oracle: every caller
     expects [None], so only this test fails if a field is dropped from
     it *)
  let base = Run.run ~coverage:true "print(1);" in
  Alcotest.(check (option string)) "equal results" None
    (Run.differing_field base (Run.run ~coverage:true "print(1);"));
  let q = Quirk.Q_charat_negative_wraps in
  List.iter
    (fun (field, (other : Run.result)) ->
      Alcotest.(check (option string)) field (Some field)
        (Run.differing_field base other))
    [
      ("parsed", { base with Run.r_parsed = not base.Run.r_parsed });
      ("parse error", { base with Run.r_parse_error = Some "x" });
      ("status", { base with Run.r_status = Run.Sts_timeout });
      ("output", { base with Run.r_output = base.Run.r_output ^ "x" });
      ("fuel", { base with Run.r_fuel_used = base.Run.r_fuel_used + 1 });
      ("fired", { base with Run.r_fired = Quirk.Set.add q base.Run.r_fired });
      ( "touched",
        { base with Run.r_touched = Quirk.Set.add q base.Run.r_touched } );
      ("coverage", { base with Run.r_coverage = None });
    ]

(* the §5.2-flavoured sources the sweep-level checks run: plain code, the
   steering program above, quirk-rich builtin traffic, a thrown error, a
   parse-stage quirk trigger, strict-only behaviour, syntax the ES5
   profile rejects, sources aimed at the five checkpoint sites the
   compiler emits inline, and hot property loops *)
let sweep_sources =
  [
    "print(1 + 1);";
    steering_src;
    {|var o = { a: 1 }; print(Object.keys(o));
print("anA".split(/^A/)); print((-634619).toFixed(2));
print([10,9,1].sort()); print("abc".charAt(-1) === "");|};
    {|var foo = function(num) { var p = num.toFixed(-2); print(p); };
foo(-634619);|};
    "for (var i = 0; i < 3; i++)";
    "function f(a, a) { return a; } print(f(1, 2));";
    (* ES2015 syntax: the ES5 profile must not borrow the standard parse *)
    "var f = (x) => x + 1; print(f(1));";
    "print(`t${2}`);";
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

(* The first disagreement, as "<testbed> <field>", between the Fast
   sweep of [src] — all 102 testbeds, then the reference engine, through
   one [Engine.Exec] cache — and direct Reference runs that each parse for
   themselves. [None] when every field of every result agrees. *)
let sweep_mismatch ?(fuel = 100_000) (src : string) : string option =
  let ec = Engine.Exec.cache src in
  let check id (reference : Run.result) (fast : Run.result) =
    Option.map (fun field -> id ^ " " ^ field)
      (Run.differing_field reference fast)
  in
  let testbed (tb : Engine.testbed) =
    let fast = Engine.Exec.run ~fuel ~strategy:Strategy.Fast ec tb in
    check (Engine.testbed_id tb)
      (Engine.run ~fuel ~strategy:Strategy.Reference tb src)
      fast
  in
  let reference_engine () =
    let fast = Engine.Exec.run_reference ~fuel ~strategy:Strategy.Fast ec in
    check "reference"
      (Engine.run_reference ~fuel ~strategy:Strategy.Reference src)
      fast
  in
  match List.find_map testbed Engine.all_testbeds with
  | Some m -> Some m
  | None -> (
      match reference_engine () with
      | Some m -> Some m
      | None -> (
          (* every Fast execution borrowed the process's realm template;
             each must have rolled its writes back *)
          match Realm.check_pristine () with
          | Ok () -> None
          | Error what -> Some ("realm template not pristine: " ^ what)))

let check_sweep ?fuel src =
  match sweep_mismatch ?fuel src with
  | None -> ()
  | Some m -> Alcotest.failf "Fast sweep differs from Reference (%s) on:\n%s" m src

(* The sources above, then the traffic of a fixed-seed campaign: the
   first 60 pulls of the Comfort, Fuzzilli-style and DIE-style fuzzers
   at seed 5, swept at campaign fuel. *)
let exec_cache_equals_direct_sweep () =
  List.iter check_sweep sweep_sources;
  List.iter
    (fun (fz : Comfort.Campaign.fuzzer) ->
      List.iter
        (fun tc ->
          check_sweep ~fuel:Comfort.Difftest.campaign_fuel
            tc.Comfort.Testcase.tc_source)
        (fz.Comfort.Campaign.fz_batch 60))
    [
      Comfort.Campaign.comfort_fuzzer ~seed:5 ();
      Baselines.Fuzzers.fuzzilli ~seed:5 ();
      Baselines.Fuzzers.die ~seed:5 ();
    ]

let compiled_sites_match_reference () =
  (* Fast (the compiled closure, consulting the quirk set at run time)
     against the Reference tree-walk, field-wise, on every testbed: the
     sources reach the five inline checkpoint sites and the hot property
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
    sweep_sources

(* Programs that parse source at run time. There the ES5 and standard
   profiles, and each parser-quirk acceptance, answer differently — and
   the rejecting side raises without consulting any quirk checkpoint, so
   the touched sets alone cannot tell the parse groups apart. Each runs
   as written (sloppy and strict testbeds) and under a "use strict"
   prologue. *)
let reparse_sources =
  let sloppy =
    [
      {|try { print(typeof eval("(x)=>x")); } catch (e) { print(e.name); }|};
      {|print(typeof eval("(x)=>x"));|};
      {|var ev = this["ev" + "al"]; print(ev("`t${1 + 1}`"));|};
      {|try { eval("for (var i = 0; i < 3; i++)"); print("accepted", i); }
catch (e) { print(e.name); }|};
      {|try { eval("'use strict'; function f(a, a) { return a; } print(f(1, 2));"); }
catch (e) { print(e.name); }|};
      {|try { eval("'use strict'; var x = 1; print(delete x);"); }
catch (e) { print(e.name); }|};
    ]
  in
  sloppy @ List.map (fun src -> "'use strict';\n" ^ src) sloppy

let cross_group_reparse_fixtures () =
  List.iter
    (fun src ->
      (* the fixture must actually tell parse groups apart *)
      let outputs =
        List.sort_uniq compare
          (List.map
             (fun tb ->
               Comfort.Difftest.signature_of_result
                 (Engine.run ~fuel:100_000 tb src))
             Engine.all_testbeds)
      in
      Alcotest.(check bool) ("parse groups disagree: " ^ src) true
        (List.length outputs > 1);
      check_sweep src)
    reparse_sources

(* One fixture per site where a sloppy run records what forcing the
   program strict would change (DESIGN.md §8): a strict testbed may
   inherit a sloppy run only when that run reached none of them, and
   then adds the shadow checkpoints. Each fixture behaves differently
   in the two modes, or consults a checkpoint only the strict run
   consults; the sweep compares every field on all 102 testbeds. The
   NFE fixtures with an assignment that never runs make the function
   tree-walk (Resolve deopts it), so the tree-walker's call site is
   covered as well as the compiled one. *)
let mode_site_sources =
  [
    (* [this] read by the callee of a plain call, directly, through an
       arrow, and as a [forEach] callback's receiver *)
    "function f() { return this === undefined; } print(f());";
    "function f() { var g = () => this; return g() === undefined; } print(f());";
    "[1].forEach(function () { print(this === undefined); });";
    {|var f = function g() { if (false) g = 1; return this === undefined; };
print(f());|};
    (* an undeclared assignment *)
    "x = 1; print(x);";
    (* failed writes and property creations: frozen, sealed and
       non-extensible objects, a non-writable prototype property, a
       primitive, a frozen or non-extensible array, a fixed length *)
    "var o = Object.freeze({a: 1}); o.a = 2; print(o.a);";
    "var o = Object.seal({a: 1}); o.b = 2; print(o.b);";
    "var p = Object.freeze({k: 1}); var o = Object.create(p); o.k = 2; print(o.k);";
    {|var s = "x"; s.p = 1; print(s.p);|};
    "var a = Object.freeze([1, 2]); a.length = 0; print(a.length);";
    "var a = Object.freeze([1, 2]); a[0] = 5; print(a[0]);";
    "var a = Object.preventExtensions([1]); a[3] = 2; print(a.length);";
    {|var a = [1]; Object.defineProperty(a, "length", { writable: false });
a[3] = 2; print(a.length);|};
    (* failed deletes: a sealed element and a sealed property *)
    "var a = Object.seal([1, 2]); print(delete a[0], a[0]);";
    "var o = Object.seal({a: 1}); print(delete o.a, o.a);";
    (* the named function expression's rebinding *)
    {|var f = function g() { g = 1; return typeof g; }; print(f());|};
    (* eval: its code stays sloppy in a strict run, and so do the
       functions it makes *)
    {|eval("var z; function h() { return 1; }"); print(h(), typeof z);|};
    (* a plain call whose callee ignores [this]: mode-free, and the
       strict run consults strict-this-is-global, compiled and
       tree-walked *)
    "function f() { return 1; } print(f());";
    {|var f = function g() { if (false) g = 1; return 1; }; print(f());|};
  ]

let mode_site_fixtures () =
  Alcotest.(check bool) "some config carries strict-this-is-global" true
    (List.exists
       (fun (tb : Engine.testbed) ->
         Quirk.Set.mem Quirk.Q_strict_this_is_global
           tb.Engine.tb_config.Engines.Registry.cfg_quirks)
       Engine.all_testbeds);
  List.iter check_sweep mode_site_sources

(* Interpreter executions of one shared sweep over all 102 testbeds. *)
let sweep_executions src =
  let ec = Engine.Exec.cache src in
  List.iter
    (fun tb ->
      ignore (Engine.Exec.run ~fuel:100_000 ~strategy:Strategy.Fast ec tb))
    Engine.all_testbeds;
  fst (Engine.Exec.stats ec)

let execution_counts_pinned () =
  (* one front end serves every parse group, nothing is consulted and
     no mode-dependent site is reached: one execution for both modes *)
  Alcotest.(check int) "quirk-free, eval-free program" 1
    (sweep_executions "print(1 + 1);");
  (* a run-time parse pins each class to its parse group *)
  let groups =
    List.sort_uniq compare
      (List.map
         (fun (tb : Engine.testbed) ->
           ( Engines.Registry.pk_int
               (Engines.Registry.parse_key tb.Engine.tb_config),
             tb.Engine.tb_mode ))
         Engine.all_testbeds)
  in
  Alcotest.(check int) "eval program: one class per parse group"
    (List.length groups)
    (sweep_executions {|eval("print(1)");|})

let exec_cache_collapses_the_sweep () =
  (* the acceptance bar: across a full 102-testbed sweep, at least 4x
     fewer interpreter executions than testbeds that ran *)
  List.iter
    (fun src ->
      let ec = Engine.Exec.cache src in
      let ran =
        List.length
          (List.filter
             (fun (tb : Engine.testbed) ->
               ignore
                 (Engine.Exec.run ~fuel:100_000 ~strategy:Strategy.Fast ec tb);
               true)
             Engine.all_testbeds)
      in
      let executed, shared = Engine.Exec.stats ec in
      Alcotest.(check int) (src ^ ": every run accounted") ran
        (executed + shared);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d executions for %d testbeds (>=4x)" src
           executed ran)
        true
        (executed * 4 <= ran))
    [ "print(1 + 1);"; steering_src;
      {|print([3,1,2].sort()); print("x".charAt(-1));|} ]

(* Field-wise report equality, deviation by deviation; testbeds are
   compared by id. *)
let report_equal (a : Comfort.Difftest.case_report)
    (b : Comfort.Difftest.case_report) : bool =
  let module D = Comfort.Difftest in
  let deviation_equal (a : D.deviation) (b : D.deviation) =
    Engine.testbed_id a.D.d_testbed = Engine.testbed_id b.D.d_testbed
    && a.D.d_kind = b.D.d_kind
    && a.D.d_expected = b.D.d_expected
    && a.D.d_actual = b.D.d_actual
    && a.D.d_behavior = b.D.d_behavior
    && Quirk.Set.equal a.D.d_fired b.D.d_fired
  in
  a.D.cr_case.Comfort.Testcase.tc_source = b.D.cr_case.Comfort.Testcase.tc_source
  && a.D.cr_all_parse_failed = b.D.cr_all_parse_failed
  && a.D.cr_all_timeout = b.D.cr_all_timeout
  && a.D.cr_tested = b.D.cr_tested
  && List.length a.D.cr_deviations = List.length b.D.cr_deviations
  && List.for_all2 deviation_equal a.D.cr_deviations b.D.cr_deviations
  && a.D.cr_observed = b.D.cr_observed

let run_case_share_equals_direct () =
  List.iter
    (fun src ->
      let tc = Comfort.Testcase.make src in
      let run strategy =
        Comfort.Difftest.run_case ~strategy Engine.all_testbeds tc
      in
      Alcotest.(check bool) (src ^ ": reports equal") true
        (report_equal (run Strategy.Fast)
           (run Strategy.Reference)))
    sweep_sources

let disc_key (d : Comfort.Campaign.discovery) =
  ( Engines.Registry.engine_name d.Comfort.Campaign.disc_engine,
    Quirk.to_string d.Comfort.Campaign.disc_quirk,
    d.Comfort.Campaign.disc_at,
    d.Comfort.Campaign.disc_behavior,
    d.Comfort.Campaign.disc_mode )

(* strategy x in-process/2 workers: same discoveries, timeline and filter
   counts everywhere. Each row also counts its real interpreter
   executions ([Run.run_count], which forked workers fold home) and the
   bytes this process allocates; the fuzzer is built before either is
   read. Sharing must keep Fast at least 4x below Reference, the workers
   row must fold back exactly the in-process Fast count, and the
   in-process Fast row must stay within 2 MB per case: recycled scratch
   holds it near 150 KB, and a reverted optimisation costs several MB.
   Also run by test_specialize on its own (seed, budget). *)
let campaign_share_invariant ~seed ~budget () =
  let campaign (strategy, workers) =
    let fz = Comfort.Campaign.comfort_fuzzer ~seed () in
    let e0 = Run.run_count () in
    let a0 = Gc.allocated_bytes () in
    let r = Comfort.Campaign.run ~budget ~strategy ~workers fz in
    (r, Run.run_count () - e0, Gc.allocated_bytes () -. a0)
  in
  let base, ref_execs, _ = campaign (Strategy.Reference, 0) in
  let rows =
    List.map
      (fun row -> (row, campaign row))
      [ (Strategy.Reference, 2); (Strategy.Fast, 0); (Strategy.Fast, 2) ]
  in
  List.iter
    (fun ((strategy, workers), (r, _, _)) ->
      let tag =
        Printf.sprintf "%s workers=%d" (Strategy.to_string strategy) workers
      in
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
    rows;
  let fast, fast_execs, fast_alloc = List.assoc (Strategy.Fast, 0) rows in
  let _, folded_execs, _ = List.assoc (Strategy.Fast, 2) rows in
  Alcotest.(check bool)
    (Printf.sprintf "Fast: %d executions, Reference %d (>=4x fewer)"
       fast_execs ref_execs)
    true
    (fast_execs * 4 <= ref_execs);
  Alcotest.(check int) "Fast workers=2: folded executions = in-process"
    fast_execs folded_execs;
  let per_case =
    fast_alloc /. Float.of_int fast.Comfort.Campaign.cp_cases_run
  in
  Alcotest.(check bool)
    (Printf.sprintf "Fast: %.0f bytes allocated per case (<= 2000000)"
       per_case)
    true
    (per_case <= 2_000_000.0)

let reducer_share_equals_direct () =
  (* the reduction predicate must accept/reject the same candidates *)
  let src =
    {|var junk1 = 1;
var p = (-634619).toFixed(-2);
print(p);
var junk2 = 2;|}
  in
  let cfg =
    Option.get
      (Engines.Registry.find_config ~engine:Engines.Registry.Rhino
         ~version:"1.7.12")
  in
  let tb = { Engine.tb_config = cfg; tb_mode = Engine.Normal } in
  let target = Engine.run tb src in
  let reference = Engine.run_reference src in
  let tsig = Comfort.Difftest.signature_of_result target in
  let rsig = Comfort.Difftest.signature_of_result reference in
  Alcotest.(check bool) "fixture deviates" true (tsig <> rsig);
  let dev =
    {
      Comfort.Difftest.d_testbed = tb;
      d_kind = Comfort.Difftest.kind_of tsig rsig;
      d_expected = Comfort.Difftest.signature_to_string rsig;
      d_actual = Comfort.Difftest.signature_to_string tsig;
      d_behavior = Comfort.Difftest.behavior_label tsig rsig;
      d_fired = target.Run.r_fired;
    }
  in
  let reduce strategy =
    Comfort.Reducer.reduce
      ~still_triggers:(Comfort.Reducer.still_triggers_deviation ~strategy tb dev)
      src
  in
  Alcotest.(check string) "same reduction" (reduce Strategy.Reference)
    (reduce Strategy.Fast)

(* Fast = Reference, field by field, on generated programs: the
   LM-driven Comfort fuzzer's cases, the Fuzzilli-style mutator's
   loop-heavy ones and the DIE-style mutator's, drawn from fixed fuzzer
   seeds by a fixed QCheck seed, each swept over all 102 testbeds and the
   reference engine (see [sweep_mismatch]: the Fast sweep is the shared
   one, the Reference sweep the direct one). The fuel cap keeps the 103
   Reference runs of a loop-heavy case cheap and lets timeouts take part
   in the comparison. Generated programs leave builtins alone, so one
   draw in seven is a program that writes to the realm template after
   reading what it writes: a write the copy-on-write rollback misses
   shows up in a later Fast execution's output and in the template
   audit. *)
let fuzzer_pool =
  lazy
    (Array.of_list
       (List.concat_map
          (fun (fz : Comfort.Campaign.fuzzer) ->
            List.filteri
              (fun i _ -> i < 20)
              (List.map
                 (fun tc -> tc.Comfort.Testcase.tc_source)
                 (fz.Comfort.Campaign.fz_batch 20)))
          [
            Comfort.Campaign.comfort_fuzzer ~seed:41 ();
            Baselines.Fuzzers.fuzzilli ~seed:43 ();
            Baselines.Fuzzers.die ~seed:47 ();
          ]))

let template_writers =
  [
    "print(typeof Object.prototype.z); Object.prototype.z = 7; print({}.z);";
    "print(Math.extra); Math.extra = 1; print(Math.extra + Math.floor(1.5));";
    {|print("a".charAt(0));
String.prototype.charAt = function () { return "Z"; };
print("a".charAt(0));|};
    "print(typeof this.leak); this.leak = [1]; print(this.leak.length);";
  ]

let shared_sweep_equals_direct_prop =
  QCheck2.Test.make ~count:60
    ~name:"shared sweep = direct sweep on fuzzer programs (Fast = Reference)"
    ~print:Fun.id
    QCheck2.Gen.(
      frequency
        [
          ( 6,
            map
              (fun i ->
                let pool = Lazy.force fuzzer_pool in
                pool.(i mod Array.length pool))
              nat );
          (1, oneofl template_writers);
        ])
    (fun src ->
      match sweep_mismatch ~fuel:20_000 src with
      | None -> true
      | Some m -> QCheck2.Test.fail_reportf "differs: %s" m)

let suite =
  [
    case "fixpoint splits when a firing exposes a checkpoint"
      fixpoint_splits_on_exposed_checkpoint;
    case "shared result equals a direct run" shared_result_equals_direct_result;
    case "run_count counts real executions" run_count_counts_real_executions;
    case "differing_field names each field" differing_field_names_each_field;
    case "Exec cache equals direct runs on all 102 testbeds"
      exec_cache_equals_direct_sweep;
    case "compiled sites match Reference on all testbeds"
      compiled_sites_match_reference;
    case "Exec cache collapses the sweep >=4x" exec_cache_collapses_the_sweep;
    case "cross-group sharing: run-time parse fixtures"
      cross_group_reparse_fixtures;
    case "strict runs inherit only mode-free sloppy runs"
      mode_site_fixtures;
    case "execution counts: one, or one per parse group under eval"
      execution_counts_pinned;
    case "run_case: share on/off reports equal" run_case_share_equals_direct;
    case "campaigns are share- and workers-invariant"
      (campaign_share_invariant ~seed:23 ~budget:100);
    case "reducer predicate is share-invariant" reducer_share_equals_direct;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 14 |])
      shared_sweep_equals_direct_prop;
  ]
