(* Specification extraction (§3.1): the Figure 1 -> Figure 4 pipeline. *)

open Specdb
open Helpers

let db () = Lazy.force Db.standard

let lookup_one name =
  match Db.lookup (db ()) name with
  | e :: _ -> e
  | [] -> Alcotest.failf "no spec entry for %s" name

let substr_entry () =
  let e = lookup_one "substr" in
  Alcotest.(check string) "name" "String.prototype.substr" e.Spec_ast.e_name;
  Alcotest.(check int) "two params" 2 (List.length e.Spec_ast.e_params);
  let start = List.nth e.Spec_ast.e_params 0 in
  let length = List.nth e.Spec_ast.e_params 1 in
  Alcotest.(check string) "start name" "start" start.Spec_ast.p_name;
  Alcotest.(check bool) "start type" true
    (start.Spec_ast.p_type = Spec_ast.Tinteger);
  Alcotest.(check bool) "start negative boundary" true
    (List.mem "-1" start.Spec_ast.p_values);
  Alcotest.(check bool) "start condition" true
    (List.mem "start < 0" start.Spec_ast.p_conditions);
  (* the Figure 2 bug needs this: undefined must be a boundary of length *)
  Alcotest.(check bool) "length undefined boundary" true
    (List.mem "undefined" length.Spec_ast.p_values);
  Alcotest.(check bool) "length undefined condition" true
    (List.mem "length === undefined" length.Spec_ast.p_conditions);
  Alcotest.(check bool) "receiver is string" true
    (e.Spec_ast.e_receiver = Spec_ast.Tstring)

let range_extraction () =
  let e = lookup_one "toFixed" in
  let p = List.hd e.Spec_ast.e_params in
  (* "If f < 0 or f > 100, throw a RangeError" -> boundary values around
     both limits and the exception kind *)
  List.iter
    (fun v ->
      Alcotest.(check bool) ("boundary " ^ v) true (List.mem v p.Spec_ast.p_values))
    [ "-1"; "0"; "100"; "101" ];
  Alcotest.(check bool) "RangeError recorded" true
    (List.mem "RangeError" e.Spec_ast.e_returns_exn)

let type_inference () =
  let check_type api param_idx expected =
    let e = lookup_one api in
    let p = List.nth e.Spec_ast.e_params param_idx in
    Alcotest.(check bool) (api ^ " param type") true (p.Spec_ast.p_type = expected)
  in
  check_type "charAt" 0 Spec_ast.Tinteger;
  check_type "repeat" 0 Spec_ast.Tinteger;
  check_type "indexOf" 0 Spec_ast.Tstring;
  check_type "lastIndexOf" 1 Spec_ast.Tnumber;
  check_type "normalize" 0 Spec_ast.Tstring;
  check_type "sort" 0 Spec_ast.Tfunction;
  check_type "parseInt" 1 Spec_ast.Tinteger

let optional_params () =
  let e = lookup_one "reduce" in
  let init = List.nth e.Spec_ast.e_params 1 in
  Alcotest.(check bool) "initialValue optional" true init.Spec_ast.p_optional

let quoted_literal_boundary () =
  let e = lookup_one "eval" in
  let p = List.hd e.Spec_ast.e_params in
  Alcotest.(check bool) "for-loop edge case extracted" true
    (List.exists
       (fun v ->
         String.length v > 10
         &&
         let re = Str_contains.contains v "for(var i = 0; i < 5; i++)" in
         re)
       p.Spec_ast.p_values)

(* [Db.stats]'s counts: sections, usable entries, rule coverage *)
let stats db =
  Scanf.sscanf (Db.stats db) "%d sections, %d with extractable rules, rule coverage %f%%"
    (fun sections usable cov -> (sections, usable, cov /. 100.0))

let prose_sections () =
  let db = db () in
  (* prose-only sections contribute rules but no extraction: the lastIndex
     rule of Listing 12 lives there *)
  let compile_entry = lookup_one "compile" in
  Alcotest.(check int) "compile has no extracted rules" 0
    compile_entry.Spec_ast.e_parsed_rules;
  Alcotest.(check bool) "compile counts rules" true
    (compile_entry.Spec_ast.e_rule_count > 0);
  (* coverage near the paper's 82% *)
  let _, _, cov = stats db in
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.1f%% within [75%%, 95%%]" (100.0 *. cov))
    true
    (cov >= 0.75 && cov <= 0.95)

let lookup_by_last_component () =
  Alcotest.(check string) "last component" "substr" (Db.last_component "String.prototype.substr");
  Alcotest.(check string) "bare" "parseInt" (Db.last_component "parseInt");
  Alcotest.(check bool) "lookup split finds entry" true (Db.lookup (db ()) "split" <> []);
  Alcotest.(check bool) "lookup unknown empty" true (Db.lookup (db ()) "zzznope" = [])

let json_shape () =
  let e = lookup_one "substr" in
  let json = Spec_ast.to_json e in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("json contains " ^ fragment) true
        (Str_contains.contains json fragment))
    [
      "\"String.prototype.substr\"";
      "\"name\": \"start\"";
      "\"type\": \"integer\"";
      "\"undefined\"";
      "\"conditions\"";
    ]

let usable_entries () =
  let db = db () in
  let sections, usable, _ = stats db in
  Alcotest.(check int) "every section counted" (List.length db.Db.entries) sections;
  Alcotest.(check bool) "at least 40 usable entries" true (usable >= 40);
  Alcotest.(check int) "usable = a parameter and a parsed rule"
    (List.length
       (List.filter
          (fun (e : Spec_ast.entry) ->
            e.Spec_ast.e_params <> [] && e.Spec_ast.e_parsed_rules > 0)
          db.Db.entries))
    usable

let suite =
  [
    case "substr entry matches Figure 4" substr_entry;
    case "range boundaries" range_extraction;
    case "type inference" type_inference;
    case "optional parameters" optional_params;
    case "quoted literal boundaries" quoted_literal_boundary;
    case "prose sections and coverage" prose_sections;
    case "lookup" lookup_by_last_component;
    case "json output" json_shape;
    case "usable entries" usable_entries;
  ]
