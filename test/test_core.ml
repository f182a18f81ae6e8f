(* Comfort core: datagen (Algorithm 1), difftest, reducer, bug filter,
   coverage, AST analyses. *)

open Helpers
module Ast = Jsast.Ast

(* --- Visit / Transform --- *)

let parse src = Jsparse.Parser.parse_program src

let call_site_extraction () =
  let p = parse {|var r = str.substr(1, 2); foo(3); var t = new Uint8Array(4); Object.keys(o);|} in
  let sites = Jsast.Visit.call_sites p in
  let callees = List.map (fun c -> c.Jsast.Visit.cs_callee) sites in
  Alcotest.(check (list string)) "callees in order"
    [ "substr"; "foo"; "Uint8Array"; "keys" ] callees;
  let substr = List.hd sites in
  Alcotest.(check (option string)) "receiver" (Some "str") substr.Jsast.Visit.cs_receiver;
  Alcotest.(check int) "substr args" 2 (List.length substr.Jsast.Visit.cs_args);
  let keys = List.nth sites 3 in
  Alcotest.(check (list string)) "dotted path" [ "Object"; "keys" ] keys.Jsast.Visit.cs_path

let free_ident_analysis () =
  let p = parse {|var a = 1; function f(x) { return x + b + Math.abs(c); } print(f(a));|} in
  let free = List.sort compare (Analysis.Scope.free_variables p) in
  Alcotest.(check (list string)) "free identifiers" [ "b"; "c" ] free;
  let p2 = parse {|try { foo(); } catch (err) { print(err); }|} in
  Alcotest.(check (list string)) "catch param bound" [ "foo" ]
    (Analysis.Scope.free_variables p2)

let transform_replace () =
  let p = parse {|var x = 1; print(x + 2);|} in
  let p2 =
    Jsast.Transform.replace_var_init p ~name:"x" ~init:(Jsast.Builder.int 40)
  in
  Alcotest.(check string) "init replaced" "42\n"
    (Jsinterp.Run.run (Jsast.Printer.program_to_string p2)).Jsinterp.Run.r_output;
  (* replace a specific expression by id *)
  let target = ref None in
  Jsast.Visit.iter_program
    ~fe:(fun e -> match e.Ast.e with Ast.Lit (Ast.Lnum 2.0) -> target := Some e.Ast.eid | _ -> ())
    p;
  let p3 =
    Jsast.Transform.replace_expr p ~eid:(Option.get !target)
      ~replacement:(Jsast.Builder.int 9)
  in
  Alcotest.(check string) "expr replaced" "10\n"
    (Jsinterp.Run.run (Jsast.Printer.program_to_string p3)).Jsinterp.Run.r_output

(* --- datagen --- *)

let dg () = Comfort.Datagen.create ~seed:3 ()

let datagen_driver_synthesis () =
  let src = {|function process(str, start, len) {
  var ret = str.substr(start, len);
  return ret;
}|} in
  let ms = Comfort.Datagen.mutants_of_program (dg ()) src in
  Alcotest.(check bool) "produces mutants" true (List.length ms >= 4);
  (* every mutant must parse and call process *)
  List.iter
    (fun (m : Comfort.Datagen.mutant) ->
      match parse m.Comfort.Datagen.m_source with
      | p ->
          Alcotest.(check bool) "mutant calls the function" true
            (List.exists
               (fun c -> c.Jsast.Visit.cs_path = [ "process" ])
               (Jsast.Visit.call_sites p))
      | exception Jsparse.Parser.Syntax_error (msg, _) ->
          Alcotest.failf "mutant does not parse (%s):\n%s" msg m.Comfort.Datagen.m_source)
    ms;
  (* the substr spec's undefined boundary must appear in some driver *)
  Alcotest.(check bool) "some driver passes undefined" true
    (List.exists
       (fun (m : Comfort.Datagen.mutant) ->
         Str_contains.contains m.Comfort.Datagen.m_source "= undefined")
       ms);
  (* and the guided ones carry the API name *)
  Alcotest.(check bool) "api recorded" true
    (List.exists
       (fun (m : Comfort.Datagen.mutant) ->
         m.Comfort.Datagen.m_api = "String.prototype.substr" && m.Comfort.Datagen.m_guided)
       ms)

let datagen_free_var_binding () =
  let src = {|var f = function(str) {
  var out = str.substring(a, b);
  return out;
};|} in
  let ms = Comfort.Datagen.mutants_of_program (dg ()) src in
  Alcotest.(check bool) "mutants exist" true (ms <> []);
  List.iter
    (fun (m : Comfort.Datagen.mutant) ->
      let p = parse m.Comfort.Datagen.m_source in
      Alcotest.(check (list string)) "no free identifiers remain" []
        (Analysis.Scope.free_variables p))
    ms

let datagen_observation_harness () =
  let src = {|function f(s) {
  var unused = s.substr(0, 2);
  return "fixed";
}|} in
  let ms = Comfort.Datagen.mutants_of_program (dg ()) src in
  (* even though the function discards the substr result, some mutant must
     make it observable *)
  Alcotest.(check bool) "observation harness present" true
    (List.exists
       (fun (m : Comfort.Datagen.mutant) ->
         Str_contains.contains m.Comfort.Datagen.m_source "__obs")
       ms)

let datagen_invalid_input () =
  Alcotest.(check int) "no mutants for syntax errors" 0
    (List.length (Comfort.Datagen.mutants_of_program (dg ()) "var = ;"))

let datagen_provenance () =
  let p =
    Jsparse.Parser.parse_program
      {|function f(num) { return num.toFixed(digits); }|}
  in
  let mutants = List.of_seq (Seq.map fst (Comfort.Datagen.mutate (dg ()) p)) in
  let guided, random =
    List.partition Comfort.Testcase.is_ecma_guided mutants
  in
  Alcotest.(check bool) "has boundary-guided mutants" true (guided <> []);
  Alcotest.(check bool) "has random-data mutants" true (random <> [])

(* --- difftest --- *)

let difftest_clean_case () =
  let tbs = Engines.Engine.latest_testbeds () in
  let report =
    Comfort.Difftest.run_case tbs (Comfort.Testcase.make {|print(1 + 1);|})
  in
  Alcotest.(check int) "no deviations" 0 (List.length report.Comfort.Difftest.cr_deviations);
  Alcotest.(check int) "all ten ran" 10 report.Comfort.Difftest.cr_tested

let difftest_flags_rhino () =
  let tbs = Engines.Engine.latest_testbeds () in
  let report =
    Comfort.Difftest.run_case tbs
      (Comfort.Testcase.make {|print("abcdef".substr(2, undefined));|})
  in
  match report.Comfort.Difftest.cr_deviations with
  | [ d ] ->
      Alcotest.(check string) "rhino deviates" "Rhino"
        (Engines.Registry.engine_name
           d.Comfort.Difftest.d_testbed.Engines.Engine.tb_config.Engines.Registry.cfg_engine);
      Alcotest.(check bool) "quirk fired" true
        (Jsinterp.Quirk.Set.mem Jsinterp.Quirk.Q_substr_undefined_length_empty
           d.Comfort.Difftest.d_fired);
      Alcotest.(check string) "kind" "WrongOutput"
        (Comfort.Difftest.deviation_kind_to_string d.Comfort.Difftest.d_kind)
  | ds -> Alcotest.failf "expected exactly one deviation, got %d" (List.length ds)

let difftest_crash_always_flagged () =
  let tbs = Engines.Engine.latest_testbeds () in
  let report =
    Comfort.Difftest.run_case tbs
      (Comfort.Testcase.make {|"".normalize(true);|})
  in
  Alcotest.(check bool) "QuickJS crash reported" true
    (List.exists
       (fun d -> d.Comfort.Difftest.d_kind = Comfort.Difftest.Dev_crash)
       report.Comfort.Difftest.cr_deviations)

let difftest_all_parse_fail_ignored () =
  let tbs = Engines.Engine.latest_testbeds () in
  let report =
    Comfort.Difftest.run_case tbs (Comfort.Testcase.make "var = broken ;;;(")
  in
  Alcotest.(check bool) "flagged as consistent parse error" true
    report.Comfort.Difftest.cr_all_parse_failed;
  Alcotest.(check int) "no deviations" 0 (List.length report.Comfort.Difftest.cr_deviations)

let difftest_timeout_2t () =
  let tbs = Engines.Engine.latest_testbeds () in
  (* the Hermes 0.1.1 quadratic-fill quirk is fixed in the latest version,
     so build a dedicated testbed list including the old version *)
  let old_hermes =
    Option.get (Engines.Registry.find_config ~engine:Engines.Registry.Hermes ~version:"0.1.1")
  in
  let tbs = { Engines.Engine.tb_config = old_hermes; tb_mode = Engines.Engine.Normal } :: tbs in
  let src =
    {|var size = 50000; var a = new Array(size); while (size--) { a[size] = 0; } print("done");|}
  in
  let report = Comfort.Difftest.run_case ~fuel:2_000_000 tbs (Comfort.Testcase.make src) in
  Alcotest.(check bool) "old Hermes flagged as timeout" true
    (List.exists
       (fun d ->
         d.Comfort.Difftest.d_kind = Comfort.Difftest.Dev_timeout
         && d.Comfort.Difftest.d_testbed.Engines.Engine.tb_config == old_hermes)
       report.Comfort.Difftest.cr_deviations)

(* --- reducer --- *)

let reducer_shrinks () =
  let noisy =
    {|var pad1 = "unrelated";
var pad2 = [1, 2, 3].map(function(x) { return x + 1; });
function foo(str, len) { return str.substr(0, len); }
print(foo("Name: Albert", undefined));
var pad3 = Math.max(1, 2);|}
  in
  let cfg = Option.get (Engines.Registry.find_config ~engine:Engines.Registry.Rhino ~version:"1.7.12") in
  let tb = { Engines.Engine.tb_config = cfg; tb_mode = Engines.Engine.Normal } in
  let target = Engines.Engine.run tb noisy in
  let reference = Engines.Engine.run_reference noisy in
  let dev =
    {
      Comfort.Difftest.d_testbed = tb;
      d_kind = Comfort.Difftest.Dev_output;
      d_expected = Comfort.Difftest.signature_to_string (Comfort.Difftest.signature_of_result reference);
      d_actual = Comfort.Difftest.signature_to_string (Comfort.Difftest.signature_of_result target);
      d_behavior = "WrongOutput";
      d_fired = target.Jsinterp.Run.r_fired;
    }
  in
  let reduced =
    Comfort.Reducer.reduce
      ~still_triggers:(Comfort.Reducer.still_triggers_deviation tb dev)
      noisy
  in
  Alcotest.(check bool) "smaller" true (String.length reduced < String.length noisy);
  Alcotest.(check bool) "padding gone" false (Str_contains.contains reduced "pad1");
  Alcotest.(check bool) "core kept" true (Str_contains.contains reduced "substr");
  (* the reduced case still deviates *)
  let t2 = Engines.Engine.run tb reduced in
  let r2 = Engines.Engine.run_reference reduced in
  Alcotest.(check bool) "still triggers" true
    (Comfort.Difftest.signature_of_result t2 <> Comfort.Difftest.signature_of_result r2)

let reducer_keeps_when_minimal () =
  let minimal = {|print("abcdef".substr(2, undefined));|} in
  let cfg = Option.get (Engines.Registry.find_config ~engine:Engines.Registry.Rhino ~version:"1.7.12") in
  let tb = { Engines.Engine.tb_config = cfg; tb_mode = Engines.Engine.Normal } in
  let target = Engines.Engine.run tb minimal in
  let dev =
    {
      Comfort.Difftest.d_testbed = tb;
      d_kind = Comfort.Difftest.Dev_output;
      d_expected = "x";
      d_actual = "y";
      d_behavior = "WrongOutput";
      d_fired = target.Jsinterp.Run.r_fired;
    }
  in
  let reduced =
    Comfort.Reducer.reduce
      ~still_triggers:(Comfort.Reducer.still_triggers_deviation tb dev)
      minimal
  in
  Alcotest.(check string) "unchanged" minimal (String.trim reduced)

(* --- bug filter (Fig. 6) --- *)

let bugfilter_dedup () =
  let t = Comfort.Bugfilter.create () in
  let c1 = Comfort.Bugfilter.classify t ~engine:"Rhino" ~api:(Some "substr") ~behavior:"WrongOutput" in
  let c2 = Comfort.Bugfilter.classify t ~engine:"Rhino" ~api:(Some "substr") ~behavior:"WrongOutput" in
  let c3 = Comfort.Bugfilter.classify t ~engine:"Rhino" ~api:(Some "substr") ~behavior:"TypeError" in
  let c4 = Comfort.Bugfilter.classify t ~engine:"V8" ~api:(Some "substr") ~behavior:"WrongOutput" in
  let c5 = Comfort.Bugfilter.classify t ~engine:"Rhino" ~api:None ~behavior:"WrongOutput" in
  Alcotest.(check bool) "first is new" true (c1 = `New_bug);
  Alcotest.(check bool) "repeat filtered" true (c2 = `Seen_before);
  Alcotest.(check bool) "new behaviour is new" true (c3 = `New_bug);
  Alcotest.(check bool) "new engine is new" true (c4 = `New_bug);
  Alcotest.(check bool) "None api node" true (c5 = `New_bug);
  Alcotest.(check int) "one filtered" 1 (Comfort.Bugfilter.filtered_count t)

(* --- coverage --- *)

let coverage_measurement () =
  let src = {|function used() { return 1; }
function unused() { return 2; }
if (true) { print(used()); } else { print("never"); }|} in
  let r = Jsinterp.Run.run ~coverage:true src in
  match r.Jsinterp.Run.r_coverage with
  | None -> Alcotest.fail "coverage missing"
  | Some c ->
      Alcotest.(check int) "one of two functions ran" 1 c.Jsinterp.Coverage.func_covered;
      Alcotest.(check int) "two functions total" 2 c.Jsinterp.Coverage.func_total;
      Alcotest.(check bool) "statement coverage partial" true
        (c.Jsinterp.Coverage.stmt_covered < c.Jsinterp.Coverage.stmt_total);
      Alcotest.(check int) "one of two branch arms" 1 c.Jsinterp.Coverage.branch_covered;
      Alcotest.(check bool) "covered statements within (0, total]" true
        (c.Jsinterp.Coverage.stmt_covered > 0
        && c.Jsinterp.Coverage.stmt_covered <= c.Jsinterp.Coverage.stmt_total)

let coverage_excludes_eval () =
  let src = {|eval("var a = 1; var b = 2; var c = 3; print(a + b + c);");
print("after");|} in
  let r = Jsinterp.Run.run ~coverage:true src in
  match r.Jsinterp.Run.r_coverage with
  | None -> Alcotest.fail "coverage missing"
  | Some c ->
      Alcotest.(check bool) "eval code not counted" true
        (c.Jsinterp.Coverage.stmt_covered <= c.Jsinterp.Coverage.stmt_total)

(* --- generator screening --- *)

let generator_screening () =
  let g = Comfort.Generator.create ~seed:55 ~keep_invalid:0.0 () in
  let cases = Comfort.Generator.generate g ~n:40 in
  Alcotest.(check int) "asked amount" 40 (List.length cases);
  List.iter
    (fun (tc : Comfort.Testcase.t) ->
      Alcotest.(check bool) "all syntactically valid at keep=0" true
        tc.Comfort.Testcase.tc_syntax_valid)
    cases

let suite =
  [
    case "call-site extraction" call_site_extraction;
    case "free identifiers" free_ident_analysis;
    case "transform" transform_replace;
    case "datagen: driver synthesis" datagen_driver_synthesis;
    case "datagen: free-var binding" datagen_free_var_binding;
    case "datagen: observation harness" datagen_observation_harness;
    case "datagen: invalid input" datagen_invalid_input;
    case "datagen: provenance split" datagen_provenance;
    case "difftest: clean case" difftest_clean_case;
    case "difftest: catches the Fig. 2 bug" difftest_flags_rhino;
    case "difftest: crash flagged" difftest_crash_always_flagged;
    case "difftest: consistent parse errors ignored" difftest_all_parse_fail_ignored;
    case "difftest: 2t timeout rule" difftest_timeout_2t;
    case "reducer shrinks" reducer_shrinks;
    case "reducer: minimal unchanged" reducer_keeps_when_minimal;
    case "bug filter tree" bugfilter_dedup;
    case "coverage measurement" coverage_measurement;
    case "coverage excludes eval code" coverage_excludes_eval;
    case "generator screening" generator_screening;
  ]
