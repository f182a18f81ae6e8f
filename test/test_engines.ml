(* Engine registry and bug catalogue invariants. *)

open Engines
open Jsinterp
open Helpers

let registry_shape () =
  Alcotest.(check int) "51 engine-version configurations (Table 1)" 51
    (List.length Registry.all_configs);
  Alcotest.(check int) "102 testbeds" 102 (List.length Engine.all_testbeds);
  Alcotest.(check int) "10 engines" 10 (List.length Registry.all_engines);
  (* version counts per engine, per Table 1 *)
  List.iter
    (fun (e, n) ->
      Alcotest.(check int)
        (Registry.engine_name e ^ " version count")
        n
        (List.length (Registry.configs_of e)))
    Registry.
      [
        (V8, 3); (ChakraCore, 5); (JSC, 4); (SpiderMonkey, 7); (Rhino, 7);
        (Nashorn, 5); (Hermes, 4); (JerryScript, 9); (QuickJS, 6); (Graaljs, 1);
      ]

let bug_distribution () =
  (* Table 2's ordering property: Rhino and JerryScript carry the most
     seeded bugs; V8, SpiderMonkey, Graaljs the fewest *)
  let count e = List.length (Registry.assignments e) in
  Alcotest.(check bool) "Rhino most buggy" true
    (List.for_all
       (fun e -> count Registry.Rhino >= count e)
       Registry.all_engines);
  Alcotest.(check bool) "JerryScript second" true
    (List.for_all
       (fun e -> e = Registry.Rhino || count Registry.JerryScript >= count e)
       Registry.all_engines);
  Alcotest.(check bool) "Graaljs fewest" true
    (List.for_all (fun e -> count Registry.Graaljs <= count e) Registry.all_engines);
  Alcotest.(check bool) "total population reasonable" true
    (let n = List.length Registry.all_bugs in
     n >= 80 && n <= 120)

let version_ranges () =
  (* a quirk fixed in version k is absent from k onward *)
  let check_absent engine version q =
    let cfg = Option.get (Registry.find_config ~engine ~version) in
    Alcotest.(check bool)
      (Printf.sprintf "%s absent in %s %s" (Quirk.to_string q)
         (Registry.engine_name engine) version)
      false
      (Quirk.Set.mem q cfg.Registry.cfg_quirks)
  in
  let check_present engine version q =
    let cfg = Option.get (Registry.find_config ~engine ~version) in
    Alcotest.(check bool)
      (Printf.sprintf "%s present in %s %s" (Quirk.to_string q)
         (Registry.engine_name engine) version)
      true
      (Quirk.Set.mem q cfg.Registry.cfg_quirks)
  in
  (* JSC TypedArray.set bug: present before 261782, fixed there (Listing 5) *)
  check_present Registry.JSC "246135" Quirk.Q_typedarray_set_string_typeerror;
  check_absent Registry.JSC "261782" Quirk.Q_typedarray_set_string_typeerror;
  (* Hermes quadratic fill: fixed in 0.3.0 (Listing 2) *)
  check_present Registry.Hermes "0.1.1" Quirk.Q_array_reverse_fill_quadratic;
  check_absent Registry.Hermes "0.3.0" Quirk.Q_array_reverse_fill_quadratic;
  (* Rhino's ES2015-transition bugs appear at 1.7.12 (§5.1.1) *)
  check_present Registry.Rhino "1.7.12" Quirk.Q_array_sort_numeric_default;
  check_absent Registry.Rhino "1.7.11" Quirk.Q_array_sort_numeric_default;
  check_present Registry.Rhino "1.7.11" Quirk.Q_seal_string_object_crash;
  check_absent Registry.Rhino "1.7.10" Quirk.Q_seal_string_object_crash

let earliest_attribution () =
  Alcotest.(check (option string)) "substr bug earliest = 1.7.10"
    (Some "1.7.10")
    (Registry.earliest_version Registry.Rhino Quirk.Q_substr_undefined_length_empty);
  Alcotest.(check (option string)) "unassigned quirk has no version" None
    (Registry.earliest_version Registry.V8 Quirk.Q_substr_undefined_length_empty)

let catalogue_total () =
  let metas = List.map Catalogue.find Quirk.all in
  List.iter2
    (fun q (m : Catalogue.meta) ->
      Alcotest.(check bool) ("metadata for " ^ Quirk.to_string q) true
        (Quirk.equal q m.Catalogue.quirk))
    Quirk.all metas;
  (* paper-grounded metadata spot checks *)
  let m = Catalogue.find Quirk.Q_substr_undefined_length_empty in
  Alcotest.(check string) "substr api" "String.prototype.substr" m.Catalogue.api;
  Alcotest.(check string) "substr type" "String" m.Catalogue.object_type;
  Alcotest.(check bool) "substr in test262" true m.Catalogue.test262_accepted;
  let h = Catalogue.find Quirk.Q_array_reverse_fill_quadratic in
  Alcotest.(check string) "hermes component" "CodeGen"
    (Catalogue.component_to_string h.Catalogue.component);
  let s = Catalogue.find Quirk.Q_strict_this_is_global in
  Alcotest.(check bool) "strict-only flagged" true s.Catalogue.strict_only;
  (* every object type used in Table 5 is a known group *)
  let known =
    [ "Object"; "String"; "Array"; "TypedArray"; "Number"; "eval function";
      "DataView"; "JSON"; "RegExp"; "Date" ]
  in
  List.iter
    (fun (meta : Catalogue.meta) ->
      Alcotest.(check bool)
        (Quirk.to_string meta.Catalogue.quirk ^ " has known object type")
        true
        (List.mem meta.Catalogue.object_type known))
    metas

let es_edition_gating () =
  (* old ES5 front ends reject ES2015 syntax, so [supports] excludes them *)
  let rhino_old = Option.get (Registry.find_config ~engine:Registry.Rhino ~version:"1.7R3") in
  let rhino_new = Option.get (Registry.find_config ~engine:Registry.Rhino ~version:"1.7.12") in
  let es6_src = "let x = 1; print(x);" in
  Alcotest.(check bool) "old Rhino does not support let" false
    (Engine.supports rhino_old es6_src);
  Alcotest.(check bool) "new Rhino supports let" true
    (Engine.supports rhino_new es6_src);
  Alcotest.(check bool) "both support ES5 code" true
    (Engine.supports rhino_old "var x = 1; print(x);")

let engine_run_isolation () =
  (* testbed runs are isolated realms: globals do not leak across runs *)
  let tb =
    { Engine.tb_config = Registry.latest Registry.V8; tb_mode = Engine.Normal }
  in
  let r1 = Engine.run tb "leak = 42; print(leak);" in
  let r2 = Engine.run tb "print(typeof leak);" in
  Alcotest.(check string) "first run sets" "42\n" r1.Run.r_output;
  Alcotest.(check string) "second run clean" "undefined\n" r2.Run.r_output

let strict_mode_testbeds () =
  let cfg = Registry.latest Registry.V8 in
  let strict_tb = { Engine.tb_config = cfg; tb_mode = Engine.Strict } in
  let r = Engine.run strict_tb "function f() { return this === undefined; } print(f());" in
  Alcotest.(check string) "strict testbed forces strict" "true\n" r.Run.r_output

let suite =
  [
    case "registry shape (Table 1)" registry_shape;
    case "bug distribution (Table 2 shape)" bug_distribution;
    case "version ranges" version_ranges;
    case "earliest-version attribution" earliest_attribution;
    case "catalogue metadata" catalogue_total;
    case "ES edition gating" es_edition_gating;
    case "realm isolation" engine_run_isolation;
    case "strict testbeds" strict_mode_testbeds;
  ]
