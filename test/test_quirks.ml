(* Ground-truth quirk validation: for every quirk in the catalogue there is
   a trigger program such that
   - the quirked engine's observable behaviour differs from the reference,
   - the quirk is recorded as fired on the quirked run,
   - and the reference run does not fire anything.
   This guarantees every seeded bug is discoverable by differential
   testing, i.e. the ground truth of the campaign experiments is sound.
   The same triggers are then checked on every catalogued testbed of
   their mode, against the reference engine. *)

open Jsinterp
open Helpers

(* quirk, trigger program, strict-mode testbed? *)
let triggers : (Quirk.t * string * bool) list =
  Quirk.
    [
      (Q_substr_undefined_length_empty, {|print("abcdef".substr(2, undefined));|}, false);
      ( Q_defineproperty_array_length_no_typeerror,
        {|try { Object.defineProperty([0, 1], "length", {value: 1, configurable: true}); print("ok"); } catch (e) { print(e.name); }|},
        false );
      ( Q_array_reverse_fill_quadratic,
        {|var size = 60000; var a = new Array(size); while (size--) { a[size] = 0; } print("done");|},
        false );
      (Q_uint32array_fractional_length_typeerror,
       {|try { print(new Uint32Array(3.14).length); } catch (e) { print(e.name); }|}, false);
      (Q_tofixed_no_rangeerror,
       {|try { print((-634619).toFixed(-2)); } catch (e) { print(e.name); }|}, false);
      (Q_typedarray_set_string_typeerror,
       {|try { var A = new Uint8Array(5); A.set("123"); print(A); } catch (e) { print(e.name); }|},
       false);
      (Q_bool_prop_appends_to_array,
       {|var obj = [1, 2, 5]; obj[true] = 10; print(obj); print(obj[true]);|}, false);
      (Q_eval_for_missing_body_accepted,
       {|try { eval("for(var i = 0; i < 5; i++)"); print("ok"); } catch (e) { print(e.name); }|},
       false);
      (Q_split_regexp_anchor_bug, {|print("anA".split(/^A/));|}, false);
      (Q_normalize_empty_crash, {|"".normalize(true);|}, false);
      (Q_seal_string_object_crash, {|Object.seal(new String(2477)); print("ok");|}, false);
      (Q_string_big_null_no_typeerror,
       {|try { print(String.prototype.big.call(null)); } catch (e) { print(e.name); }|}, false);
      ( Q_regexp_lastindex_nonwritable_silent,
        {|var re = /a/g; Object.defineProperty(re, "lastIndex", {writable: false});
try { re.compile("b"); print("ok"); } catch (e) { print(e.name); }|},
        false );
      (Q_named_funcexpr_binding_mutable,
       {|(function v1() { v1 = 20; print(typeof v1); }());|}, false);
      (Q_replace_dollar_group_literal,
       {|print("a b".replace(/(\w) (\w)/, "$2 $1"));|}, false);
      (Q_replace_fn_missing_offset,
       {|print("abc".replace("b", function(m, off) { return "" + off; }));|}, false);
      (Q_replace_undefined_search_noop,
       {|print("x undefined y".replace(undefined, "Z"));|}, false);
      (Q_replace_empty_pattern_skips, {|print("abc".replace("", "-"));|}, false);
      (Q_charat_negative_wraps, {|print("abc".charAt(-1) === "");|}, false);
      (Q_padstart_overlong_truncates, {|print("abcdef".padStart(3, "x"));|}, false);
      (Q_trim_missing_vt, {|print("\x0bx\x0b".trim());|}, false);
      (Q_repeat_negative_empty,
       {|try { print("x".repeat(-1)); } catch (e) { print(e.name); }|}, false);
      (Q_string_indexof_fromindex_ignored, {|print("banana".indexOf("an", 2));|}, false);
      (Q_slice_negative_start_zero, {|print("abcdef".slice(-2));|}, false);
      (Q_startswith_position_ignored, {|print("abcdef".startsWith("cd", 2));|}, false);
      (Q_lastindexof_nan_zero, {|print("banana".lastIndexOf("an", NaN));|}, false);
      (Q_array_sort_numeric_default, {|print([10, 9, 1].sort());|}, false);
      (Q_splice_negative_delcount_deletes,
       {|var a = [1, 2, 3]; a.splice(0, -1); print(a);|}, false);
      (Q_array_indexof_nan_found, {|print([NaN].indexOf(NaN));|}, false);
      (Q_array_includes_strict_nan, {|print([NaN].includes(NaN));|}, false);
      (Q_unshift_returns_undefined, {|print([2].unshift(1));|}, false);
      (Q_join_prints_null_undefined, {|print([1, null, undefined, 2].join("-"));|}, false);
      (Q_reduce_empty_returns_undefined,
       {|try { print([].reduce(function(a, b) { return a + b; })); } catch (e) { print(e.name); }|},
       false);
      (Q_flat_ignores_depth, {|print([1, [2, [3, [4]]]].flat(1).length);|}, false);
      (Q_array_fill_skips_last, {|print([0, 0, 0].fill(7, 0, 3));|}, false);
      (Q_tostring_radix_no_rangeerror,
       {|try { print((255).toString(40)); } catch (e) { print(e.name); }|}, false);
      (Q_toprecision_zero_accepted,
       {|try { print((1.5).toPrecision(0)); } catch (e) { print(e.name); }|}, false);
      (Q_parseint_no_hex_prefix, {|print(parseInt("0x1f"));|}, false);
      (Q_parsefloat_trailing_nan, {|print(parseFloat("3.5kg"));|}, false);
      (Q_number_isinteger_coerces, {|print(Number.isInteger("5"));|}, false);
      (Q_freeze_array_elements_writable,
       {|var a = [1]; Object.freeze(a); a[0] = 9; print(a[0]);|}, false);
      (Q_keys_includes_nonenumerable,
       {|var o = {}; Object.defineProperty(o, "h", {value: 1, enumerable: false});
print(Object.keys(o).length);|},
       false);
      (Q_getownpropertynames_sorted,
       {|print(Object.getOwnPropertyNames({z: 1, a: 2}));|}, false);
      (Q_defineproperty_defaults_writable,
       {|var o = {}; Object.defineProperty(o, "k", {value: 1}); o.k = 2; print(o.k);|}, false);
      (Q_assign_skips_numeric_keys,
       {|var t = Object.assign({}, {1: "a", x: "b"}); print(t[1]); print(t.x);|}, false);
      (Q_hasownproperty_walks_proto, {|print(({}).hasOwnProperty("toString"));|}, false);
      (Q_delete_nonconfigurable_succeeds,
       {|var o = {}; Object.defineProperty(o, "k", {value: 1, configurable: false});
delete o.k; print(o.k);|},
       false);
      (Q_json_stringify_undefined_string,
       {|print(typeof JSON.stringify(undefined));|}, false);
      (Q_json_parse_trailing_comma,
       {|try { print(JSON.parse("[1, 2, ]")); } catch (e) { print(e.name); }|}, false);
      (Q_json_stringify_nan_literal, {|print(JSON.stringify(NaN));|}, false);
      (Q_regex_dot_matches_newline, {|print(/a.c/.test("a\nc"));|}, false);
      (Q_regex_ignorecase_broken, {|print(/HELLO/i.test("hello"));|}, false);
      (Q_regex_class_negation_broken, {|print(/[^x]/.test("x"));|}, false);
      (Q_typedarray_oob_write_crash,
       {|var t = new Uint8Array(2); t[9] = 1; print("ok");|}, false);
      (Q_uint8clamped_wraps,
       {|var c = new Uint8ClampedArray(1); c[0] = 300; print(c[0]);|}, false);
      (Q_dataview_no_bounds_check,
       {|try { print(new DataView(2).getUint8(9)); } catch (e) { print(e.name); }|}, false);
      (Q_typedarray_fill_no_coerce,
       {|var t = new Uint8Array(2); t.fill(257); print(t);|}, false);
      (Q_eval_expr_returns_undefined, {|print(eval("1 + 2"));|}, false);
      (Q_eval_string_result_quoted, {|print(eval("'str'"));|}, false);
      (Q_codegen_neg_zero_positive, {|var z = 0; print(1 / -z);|}, false);
      (Q_codegen_mod_sign_wrong, {|print(-5 % 3);|}, false);
      (Q_codegen_shift_count_unmasked, {|print(1 << 33);|}, false);
      (Q_codegen_ushr_signed, {|print(-1 >>> 0);|}, false);
      (Q_codegen_string_relational_numeric, {|print("10" < "9");|}, false);
      (Q_codegen_null_eq_undefined_false, {|print(null == undefined);|}, false);
      (Q_codegen_plus_bool_concat, {|print(true + 1);|}, false);
      (Q_opt_int_add_overflow_wraps, {|print(2000000000 + 2000000000);|}, false);
      ( Q_opt_loop_strconcat_drops,
        {|var s = ""; for (var i = 0; i < 150; i++) { s += "x"; } print(s.length);|},
        false );
      (Q_strict_undeclared_assign_silent,
       {|function f() { qq_undeclared = 1; } try { f(); print("silent"); } catch (e) { print(e.name); }|},
       true);
      (Q_strict_this_is_global,
       {|function f() { return this === undefined; } print(f());|}, true);
      (Q_strict_delete_unqualified_accepted, {|var x = 1; print(delete x);|}, true);
      (Q_strict_dup_params_accepted,
       {|print((function(a, a) { return a; })(1, 2));|}, true);
    ]

let run_one ?(strict = false) quirks src =
  Run.run ~strict ~quirks ~fuel:2_000_000 src

let signature (r : Run.result) =
  if not r.Run.r_parsed then "parse-fail"
  else
    Printf.sprintf "%s|%s" (Run.status_to_string r.Run.r_status) r.Run.r_output

let quirk_case (q, src, strict) =
  case (Quirk.to_string q) (fun () ->
      let reference = run_one ~strict Quirk.Set.empty src in
      let quirked = run_one ~strict (Quirk.Set.singleton q) src in
      if not (Quirk.Set.is_empty reference.Run.r_fired) then
        Alcotest.failf "reference run fired quirks for %s" (Quirk.to_string q);
      if not (Quirk.Set.mem q quirked.Run.r_fired) then
        Alcotest.failf "quirk %s did not fire on its trigger" (Quirk.to_string q);
      if signature reference = signature quirked then
        Alcotest.failf "quirk %s is not observable: both runs gave %s"
          (Quirk.to_string q) (signature reference))

(* The oracle per testbed: every trigger on every testbed of its mode.
   The quirk fires exactly on the testbeds that hold it, each of those
   deviates from the reference engine, and no testbed deviates without
   firing some quirk. "Deviates exactly on the holders" does not hold
   and is not asserted: a trigger may also fire a second quirk that a
   non-holder carries (the typedarray-fill-no-coerce trigger fires
   array-fill-skips-last on three JSC versions, and the
   eval-string-result-quoted one fires eval-expr-returns-undefined on
   three ChakraCore versions and on Hermes 0.6.0). *)
let oracle_case =
  case "every trigger fires exactly on its testbeds" (fun () ->
      List.iter
        (fun (q, src, strict) ->
          let mode = if strict then Engines.Engine.Strict else Engines.Engine.Normal in
          let signature = Comfort.Difftest.signature_of_result in
          let reference = signature (Engines.Engine.run_reference ~strict src) in
          List.iter
            (fun (tb : Engines.Engine.testbed) ->
              if tb.Engines.Engine.tb_mode = mode then begin
                let r = Engines.Engine.run tb src in
                let holds =
                  Quirk.Set.mem q
                    tb.Engines.Engine.tb_config.Engines.Registry.cfg_quirks
                in
                let where =
                  Printf.sprintf "%s trigger on %s" (Quirk.to_string q)
                    (Engines.Engine.testbed_id tb)
                in
                if Quirk.Set.mem q r.Run.r_fired <> holds then
                  Alcotest.failf "%s: fired=%b but holds=%b" where (not holds)
                    holds;
                let deviates = signature r <> reference in
                if holds && not deviates then
                  Alcotest.failf "%s: the quirk fired but the output matches \
                                  the reference engine" where;
                if deviates && Quirk.Set.is_empty r.Run.r_fired then
                  Alcotest.failf "%s: deviates with no quirk fired" where
              end)
            Engines.Engine.all_testbeds)
        triggers)

let coverage_case =
  case "every catalogued quirk has a trigger" (fun () ->
      let covered = List.map (fun (q, _, _) -> q) triggers in
      List.iter
        (fun q ->
          if not (List.exists (Quirk.equal q) covered) then
            Alcotest.failf "no trigger test for quirk %s" (Quirk.to_string q))
        Quirk.all;
      (* catalogue metadata is total: [find] raises on a missing quirk *)
      List.iter (fun q -> ignore (Engines.Catalogue.find q)) Quirk.all)

let suite = coverage_case :: oracle_case :: List.map quirk_case triggers
