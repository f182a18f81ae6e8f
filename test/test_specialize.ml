(* The compiled side of the Fast strategy: copy-on-write realms and one
   compiled closure per (front end, mode) whose checkpoint sites consult
   the quirk set at run time.

   The contract under test is the Fast = Reference contract:
   specialisation is *invisible in results*. Every run, sweep and
   campaign must produce field-for-field what the Reference oracle
   produces; the only legitimate difference is speed. On top of that, the
   copy-on-write realm must leak nothing across executions — after any
   mutation-heavy sweep the shared template has to audit
   pristine. *)

open Helpers
module Engine = Engines.Engine
module Run = Jsinterp.Run
module Realm = Jsinterp.Realm
module Strategy = Jsinterp.Strategy

(* Sources chosen to stress exactly the machinery the Fast path adds:
   compiled property sites (hot property loops, prototype method loads,
   layout churn), the realm write barrier (template-object mutation:
   builtin prototypes, global builtins), and compiled checkpoint sites on
   quirk-rich traffic. *)
let corpus =
  [
    (* hot own-property loads and stores *)
    "var o = {a: 1, b: 2};\n\
     for (var i = 0; i < 50; i++) o.a = o.a + o.b;\n\
     print(o.a);";
    (* prototype method load through a user constructor *)
    "function C() {}\n\
     C.prototype.m = function () { return 40 + 2; };\n\
     var c = new C();\n\
     for (var i = 0; i < 20; i++) c.m();\n\
     print(c.m());";
    (* layout churn: delete and re-add in front of a hot store *)
    "var o = { p: 1 };\n\
     delete o.p;\n\
     o.p = 2;\n\
     for (var i = 0; i < 10; i++) o.p = o.p + 1;\n\
     print(o.p);";
    (* template mutation: builtin prototype gains a property (the realm
       write barrier must journal Object.prototype and roll it back) *)
    "Object.prototype.z = 7;\nvar o = {};\nprint(o.z);";
    (* template mutation: a global builtin object is extended *)
    "Math.extra = 1;\nprint(Math.extra + Math.floor(1.5));";
    (* frozen objects: silent rejection vs strict throw across modes *)
    "var f = {};\n\
     Object.defineProperty(f, 'k', { value: 1, writable: false });\n\
     try { f.k = 2; } catch (e) { print('threw'); }\n\
     print(f.k);";
    (* array element aliasing and length truncation *)
    "var a = [1, 2, 3];\na[0] = a[2];\na.length = 2;\nprint(a.join(','));";
    (* quirk-rich traffic: sort stability, charAt bounds, toFixed *)
    "print([10, 9, 1].sort());\n\
     print(\"abc\".charAt(-1));\n\
     print((0.1).toFixed(1));";
  ]

let check_result_equal id (a : Run.result) (b : Run.result) =
  Alcotest.(check bool) (id ^ ": parsed") a.Run.r_parsed b.Run.r_parsed;
  Alcotest.(check (option string))
    (id ^ ": parse error") a.Run.r_parse_error b.Run.r_parse_error;
  Alcotest.(check string) (id ^ ": status")
    (Run.status_to_string a.Run.r_status)
    (Run.status_to_string b.Run.r_status);
  Alcotest.(check string) (id ^ ": output") a.Run.r_output b.Run.r_output;
  Alcotest.(check int) (id ^ ": fuel") a.Run.r_fuel_used b.Run.r_fuel_used;
  Alcotest.(check bool) (id ^ ": fired") true
    (Jsinterp.Quirk.Set.equal a.Run.r_fired b.Run.r_fired);
  Alcotest.(check bool) (id ^ ": touched") true
    (Jsinterp.Quirk.Set.equal a.Run.r_touched b.Run.r_touched)

(* --- specialised runs equal Reference runs, field for field --- *)

let specialized_equals_reference () =
  List.iter
    (fun src ->
      List.iter
        (fun (tb : Engine.testbed) ->
          let id = Engine.testbed_id tb ^ " on " ^ String.sub src 0 12 in
          let reference =
            Engine.run ~fuel:100_000 ~strategy:Strategy.Reference tb src
          in
          let fast = Engine.run ~fuel:100_000 ~strategy:Strategy.Fast tb src in
          check_result_equal id reference fast)
        Engine.all_testbeds)
    corpus

(* --- copy-on-write isolation: sweeps leave the template pristine --- *)

let cow_sweep_leaves_realm_pristine () =
  (* run every mutation-heavy source across the full testbed pool on the
     shared fast path, then audit the template structurally
     against a freshly built realm: any surviving write is a barrier
     gap, i.e. state leaking from one execution into the next *)
  List.iter
    (fun src ->
      let ec = Engine.Exec.cache src in
      List.iter
        (fun tb ->
          ignore (Engine.Exec.run ~fuel:100_000 ~strategy:Strategy.Fast ec tb))
        Engine.all_testbeds;
      match Realm.check_pristine () with
      | Ok () -> ()
      | Error what ->
          Alcotest.failf "template not pristine after %S: %s" src what)
    corpus

let cow_sweep_matches_reference_sweep () =
  (* the same sweep under both strategies, through separate caches, must
     agree result for result *)
  List.iter
    (fun src ->
      let ec_fast = Engine.Exec.cache src in
      let ec_ref = Engine.Exec.cache src in
      List.iter
        (fun tb ->
          let fast =
            Engine.Exec.run ~fuel:100_000 ~strategy:Strategy.Fast ec_fast tb
          in
          let reference =
            Engine.Exec.run ~fuel:100_000 ~strategy:Strategy.Reference ec_ref
              tb
          in
          check_result_equal (Engine.testbed_id tb) reference fast)
        Engine.all_testbeds)
    corpus

(* --- the machinery actually engages --- *)

let counters_engage () =
  (* deltas of the process-wide counters across targeted runs; the
     fuzzer's own corpus is array- and primitive-heavy, so these
     hand-written programs are the canary that the fast paths exist *)
  let compilations () = Cutil.Counter.get Jsinterp.Compile.specialized in
  let cow_clones () = Cutil.Counter.get Jsinterp.Value.cow_clones in
  let spec0 = compilations () in
  let cow0 = cow_clones () in
  ignore
    (Run.run ~strategy:Strategy.Fast
       "var o = {a: 1, b: 2};\n\
        for (var i = 0; i < 50; i++) o.a = o.a + o.b;\n\
        print(o.a);");
  ignore
    (Run.run ~strategy:Strategy.Fast
       "Object.prototype.z = 7;\nvar o = {};\nprint(o.z);");
  Alcotest.(check bool) "compilations happened" true
    (compilations () > spec0);
  Alcotest.(check bool) "write barrier journaled a template mutation" true
    (cow_clones () > cow0);
  Alcotest.(check bool) "rollback restored the template" true
    (Realm.check_pristine () = Ok ())

(* --- the per-case audit passes on real traffic --- *)

let audit_specialize_passes () =
  List.iter
    (fun src ->
      let tc = Comfort.Testcase.make src in
      (* raises Audit_mismatch on any divergence *)
      ignore (Comfort.Difftest.audit_case Engine.all_testbeds tc))
    corpus

(* --- campaign invariance --- *)

let disc_key (d : Comfort.Campaign.discovery) =
  ( Engines.Registry.engine_name d.Comfort.Campaign.disc_engine,
    Jsinterp.Quirk.to_string d.Comfort.Campaign.disc_quirk,
    d.Comfort.Campaign.disc_at,
    d.Comfort.Campaign.disc_behavior,
    Engine.mode_to_string d.Comfort.Campaign.disc_mode )

let campaign_specialize_invariant () =
  (* strategy x in-process/2 workers: identical discoveries, timeline and filter counts —
     the acceptance bar in miniature *)
  let campaign ~strategy ~workers =
    Comfort.Campaign.run ~budget:80 ~strategy ~workers
      (Comfort.Campaign.comfort_fuzzer ~seed:29 ())
  in
  let base = campaign ~strategy:Strategy.Reference ~workers:0 in
  List.iter
    (fun (strategy, workers) ->
      let r = campaign ~strategy ~workers in
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
    [ (Strategy.Fast, 0); (Strategy.Fast, 2); (Strategy.Reference, 2) ]

let campaign_audit_specialize_passes () =
  (* every 2nd case cross-checks the Fast sweep against the Reference one
     in a live campaign; a mismatch raises *)
  let r =
    Comfort.Campaign.run ~budget:40 ~audit:2 ~workers:0
      (Comfort.Campaign.comfort_fuzzer ~seed:31 ())
  in
  Alcotest.(check int) "campaign completed its budget" 40
    r.Comfort.Campaign.cp_cases_run

(* --- integer element keys: one element path for both cores ---

   [a[k]] with an index Number on an array takes [Ops.get_index] /
   [Ops.set_index]'s integer path in both the compiled core and the
   tree-walker; every other key goes through ToString. These fixtures
   hit the edges of that split (keys just outside the integer domain,
   frozen/sealed/non-extensible and typed receivers, the element-store
   quirks) plus two generated programs whose array loops dominated a
   campaign's interpreter time, and require the Reference tree-walker
   and the Fast compiled core to agree on every testbed. *)

let element_key_fixtures =
  [
    ( "typed OOB",
      "var t = new Uint8Array(4);\n\
       for (var i = 0; i < 7; i++) t[i] = i * 100;\n\
       var f = new Float64Array(2);\n\
       f[0] = 1.5; f[2] = 9; f[-0] = 2.5;\n\
       print(t[0] + ',' + t[3] + ',' + t[5] + ',' + t.length + ',' + f[0] + ',' + f[2]);" );
    ( "frozen sloppy",
      "var f = Object.freeze([1, 2, 3]);\n\
       f[0] = 9; f[5] = 1;\n\
       var s = Object.seal([1, 2]);\n\
       s[0] = 7; s[2] = 8;\n\
       var p = Object.preventExtensions([4]);\n\
       p[0] = 5; p[1] = 6;\n\
       print(f[0] + ',' + f.length + ';' + s[0] + ',' + s.length + ';' + p[0] + ',' + p.length);" );
    ( "frozen strict",
      "'use strict';\n\
       function w(a, i, v) { try { a[i] = v; return 'ok'; } catch (e) { return e.name + ': ' + e.message; } }\n\
       var f = Object.freeze([1, 2, 3]);\n\
       var s = Object.seal([1, 2]);\n\
       var p = Object.preventExtensions([4]);\n\
       print(w(f, 0, 9)); print(w(f, 5, 1)); print(w(s, 0, 7)); print(w(s, 2, 8));\n\
       print(w(p, 0, 5)); print(w(p, 1, 6));\n\
       print(f[0] + ',' + s[0] + ',' + s.length + ',' + p[0] + ',' + p.length);" );
    ( "bool key and reverse fill",
      "var a = [1, 2];\n\
       a[true] = 3; a[false] = 4;\n\
       print(a.length + ':' + a[2] + ':' + a['true'] + ':' + a['false']);\n\
       var r = [];\n\
       for (var i = 400; i >= 0; i--) r[i] = i;\n\
       print(r.length + ':' + r[0] + ':' + r[400]);" );
    ( "edge keys",
      "var a = [10, 20];\n\
       a[-0] = 1; a[1.5] = 2; a[-1] = 3; a[NaN] = 4;\n\
       print(a[0] + ',' + a[1.5] + ',' + a[-1] + ',' + a[NaN] + ',' + a.length + ',' + a[-0]);\n\
       print(a['1.5'] + ',' + a['-1'] + ',' + a['NaN'] + ',' + a[1e21] + ',' + a[2 ** 53]);\n\
       try { a[2 ** 53] = 5; print('stored'); } catch (e) { print(e.name + ': ' + e.message); }\n\
       try { a[1e7 + 1] = 6; print('stored'); } catch (e) { print(e.name + ': ' + e.message); }\n\
       a[9] = 7;\n\
       print(a.length + ',' + a[8] + ',' + a[9] + ',' + a[4294967295]);" );
    ( "update and delete",
      "var a = [1, 2, 3];\n\
       for (var i = 0; i < 3; i++) { a[i] += 1; a[i]++; ++a[i]; a[i] *= 2; }\n\
       var d = [delete a[1], delete a[7], delete a[-1]];\n\
       var s = 'abc';\n\
       print(a.join(',') + ':' + a.length + ':' + (1 in a) + ':' + d + ':' + s[1] + ':' + s[5]);" );
    (* seed 2 case 279 of the comfort-102 campaign workload *)
    ( "generated push loop",
      "var __obs = [];\n\
       var n = 32454;\n\
       var items = [1, 2, 5];\n\
       var out = undefined;\n\
       function foo(a, b) {\n\
      \  if (b === 0) {\n\
      \    return false;\n\
      \  }\n\
      \  for (var i = 0; i < n; i++) {\n\
      \    __obs[__obs.length] = items.push(i * i);\n\
      \  }\n\
      \  return out;\n\
       }\n\
       var arg_a = \"rvvhj\";\n\
       var arg_b = false;\n\
       var result = foo(arg_a, arg_b);\n\
       print(result);\n\
       for (var __i = 0; __i < __obs.length; __i++) {\n\
      \  print(__obs[__i]);\n\
       }\n" );
    (* seed 3 case 222 of the comfort-102 campaign workload *)
    ( "generated reverse fill",
      "var size = 23789;\n\
       var array = [3, 1];\n\
       var value = 42971;\n\
       function foo(a, b) {\n\
      \  while (size--) {\n\
      \    array[size] = size;\n\
      \  }\n\
      \  return value;\n\
       }\n\
       var arg_a = 42;\n\
       var arg_b = true;\n\
       var result = foo(arg_a, arg_b);\n\
       print(result);\n" );
  ]

let element_keys_agree_across_cores () =
  let fired = ref Jsinterp.Quirk.Set.empty in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun (tb : Engine.testbed) ->
          let id = Engine.testbed_id tb ^ " on " ^ name in
          let run strategy = Engine.run ~fuel:100_000 ~strategy tb src in
          let tree = run Strategy.Reference in
          check_result_equal (id ^ " (Fast)") tree (run Strategy.Fast);
          fired := Jsinterp.Quirk.Set.union !fired tree.Run.r_fired)
        Engine.all_testbeds)
    element_key_fixtures;
  (* the fixtures reach every element-store quirk somewhere in the pool *)
  List.iter
    (fun q ->
      Alcotest.(check bool) (Jsinterp.Quirk.to_string q ^ " fired") true
        (Jsinterp.Quirk.Set.mem q !fired))
    Jsinterp.Quirk.
      [
        Q_typedarray_oob_write_crash;
        Q_freeze_array_elements_writable;
        Q_bool_prop_appends_to_array;
        Q_array_reverse_fill_quadratic;
      ]

(* The integer path against the string path it bypasses: the same
   element operations keyed by a Number and by that Number's ToString
   must agree in output, status and fuel. The two preludes differ
   ([k = K] against [k = String(K)]), so fuel is compared net of each
   prelude run on its own. *)
let element_key_body =
  "function t(f) { try { return f(); } catch (e) { return e.name + ': ' + e.message; } }\n\
   var a = [1, 2, 3];\n\
   print(t(function () { a[k] = 7; a[k] += 1; a[k]++; return a[k] + ':' + a.length; }));\n\
   var f = Object.freeze([1, 2]);\n\
   print(t(function () { f[k] = 5; return f[k] + ':' + f.length; }));\n\
   var s = Object.seal([1, 2]);\n\
   print(t(function () { s[k] = 5; return s[k] + ':' + s.length; }));\n\
   var y = new Int8Array(2);\n\
   print(t(function () { y[k] = 300; return y[k] + ':' + y.length; }));\n\
   var r = [];\n\
   print(t(function () { r[k] = 1; r[0] = 2; return r.length + ':' + delete r[k]; }));\n"

let integer_keys_match_string_keys () =
  List.iter
    (fun key ->
      let num = Printf.sprintf "var k = (%s);\n" key in
      let str = Printf.sprintf "var k = String(%s);\n" key in
      List.iter
        (fun (tb : Engine.testbed) ->
          List.iter
            (fun strategy ->
              let id =
                Printf.sprintf "%s, key %s, %s" (Engine.testbed_id tb) key
                  (Strategy.to_string strategy)
              in
              let run src = Engine.run ~fuel:100_000 ~strategy tb src in
              let a = run (num ^ element_key_body)
              and b = run (str ^ element_key_body) in
              Alcotest.(check string) (id ^ ": status")
                (Run.status_to_string b.Run.r_status)
                (Run.status_to_string a.Run.r_status);
              Alcotest.(check string) (id ^ ": output") b.Run.r_output
                a.Run.r_output;
              Alcotest.(check int) (id ^ ": fuel")
                (b.Run.r_fuel_used - (run str).Run.r_fuel_used)
                (a.Run.r_fuel_used - (run num).Run.r_fuel_used))
            [ Strategy.Reference; Strategy.Fast ])
        Engine.all_testbeds)
    [
      "0"; "-0"; "1"; "2"; "3"; "1.5"; "-1"; "NaN"; "Infinity"; "2 ** 53";
      "2 ** 53 - 1"; "1e7 + 1"; "4294967295"; "1e21";
    ]

let suite =
  [
    case "specialised runs equal Reference runs" specialized_equals_reference;
    case "COW sweeps leave the realm pristine" cow_sweep_leaves_realm_pristine;
    case "COW sweeps match Reference sweeps" cow_sweep_matches_reference_sweep;
    case "specialisation counters engage" counters_engage;
    case "per-case specialise audit passes" audit_specialize_passes;
    case "campaigns are specialisation-invariant"
      campaign_specialize_invariant;
    case "auditing campaign passes" campaign_audit_specialize_passes;
    case "element keys agree across both cores"
      element_keys_agree_across_cores;
    case "integer keys behave as their ToString" integer_keys_match_string_keys;
  ]
