(* The catalogue of injected conformance deviations ("quirks").

   Each constructor names one concrete deviation from ECMA-262 that the
   reference interpreter can be configured to exhibit. A simulated engine
   version (see the [engines] library) is the reference semantics plus a set
   of quirks. The interpreter consults the active set at the corresponding
   conformance-relevant point and records when a quirk's deviant path
   actually executes — that record is how a fuzzing campaign's findings are
   scored against ground truth.

   The first block reproduces the bugs reported in the paper (§2.3, §5.2,
   §5.3.2); the rest are modelled on the paper's bug statistics so that the
   per-API and per-component distributions (Tables 4–5, Fig. 7) have enough
   mass to reproduce. Metadata (owning engine, version fixed in, component,
   confirmation status) lives in [Engines.Catalogue]. *)

type t =
  (* --- bugs lifted directly from the paper --- *)
  | Q_substr_undefined_length_empty
      (** Rhino (Fig. 2): [s.substr(start, undefined)] returns [""] instead
          of the suffix. *)
  | Q_defineproperty_array_length_no_typeerror
      (** V8/Graaljs (Listing 1): redefining non-configurable array [length]
          with [configurable: true] must throw TypeError; it doesn't. *)
  | Q_array_reverse_fill_quadratic
      (** Hermes (Listing 2): filling an array from high to low indices
          relocates storage per element — quadratic time. *)
  | Q_uint32array_fractional_length_typeerror
      (** SpiderMonkey < 52.9 (Listing 3): [new Uint32Array(3.14)] throws
          TypeError instead of converting via ToInteger. *)
  | Q_tofixed_no_rangeerror
      (** Rhino (Listing 4): [toFixed(-2)] returns a string instead of
          throwing RangeError. *)
  | Q_typedarray_set_string_typeerror
      (** JSC < 261782 (Listing 5): [uint8.set("123")] throws TypeError
          instead of treating the string as array-like. *)
  | Q_bool_prop_appends_to_array
      (** QuickJS (Listing 6): [arr\[true\] = v] appends [v] as an element
          instead of setting property ["true"]. *)
  | Q_eval_for_missing_body_accepted
      (** ChakraCore (Listing 7): [eval("for(...)")] with no loop body
          compiles instead of throwing SyntaxError. *)
  | Q_split_regexp_anchor_bug
      (** JerryScript (Listing 8): ["anA".split(/^A/)] returns ["an"]
          instead of ["anA"]. *)
  | Q_normalize_empty_crash
      (** QuickJS (Listing 9): [("").normalize(arg)] crashes the engine. *)
  | Q_seal_string_object_crash
      (** Rhino (Listing 11, found by Fuzzilli): [Object.seal(new String(n))]
          crashes. *)
  | Q_string_big_null_no_typeerror
      (** Rhino (Listing 10, found by CodeAlchemist):
          [String.prototype.big.call(null)] must throw TypeError. *)
  | Q_regexp_lastindex_nonwritable_silent
      (** Rhino/JerryScript (Listing 12, found by DIE): writing [lastIndex]
          through [exec] when it is non-writable must throw TypeError. *)
  | Q_named_funcexpr_binding_mutable
      (** Hermes/Rhino (Listing 13, found by Montage): the name binding of a
          named function expression is writable inside the function. *)
  (* --- String API (paper: 22 submitted string bugs; 8 on replace) --- *)
  | Q_replace_dollar_group_literal   (** [$1] in replacement copied literally *)
  | Q_replace_fn_missing_offset      (** replacer function called without offset/string args *)
  | Q_replace_undefined_search_noop  (** [replace(undefined, x)] does not match "undefined" *)
  | Q_replace_empty_pattern_skips    (** empty-string pattern fails to match at position 0 *)
  | Q_charat_negative_wraps          (** [charAt(-1)] returns the last character *)
  | Q_padstart_overlong_truncates    (** [padStart(n)] with n < length truncates *)
  | Q_trim_missing_vt                (** [trim] does not strip vertical tab *)
  | Q_repeat_negative_empty          (** [repeat(-1)] returns "" instead of RangeError *)
  | Q_string_indexof_fromindex_ignored
  | Q_slice_negative_start_zero      (** [slice(-n)] treated as [slice(0)] *)
  | Q_startswith_position_ignored
  | Q_lastindexof_nan_zero           (** [lastIndexOf(s, NaN)] searches from 0, not end *)
  (* --- Array API (paper: 17 submitted) --- *)
  | Q_array_sort_numeric_default     (** default sort compares numerically *)
  | Q_splice_negative_delcount_deletes
  | Q_array_indexof_nan_found
  | Q_array_includes_strict_nan      (** [includes(NaN)] false — uses === not SameValueZero *)
  | Q_unshift_returns_undefined
  | Q_join_prints_null_undefined
  | Q_reduce_empty_returns_undefined (** no TypeError on empty reduce without seed *)
  | Q_flat_ignores_depth
  | Q_array_fill_skips_last          (** [fill] end index treated exclusive-minus-one *)
  (* --- Number API (paper: 5 submitted) --- *)
  | Q_tostring_radix_no_rangeerror
  | Q_toprecision_zero_accepted
  | Q_parseint_no_hex_prefix
  | Q_parsefloat_trailing_nan
  | Q_number_isinteger_coerces
  (* --- Object API (paper: 23 submitted) --- *)
  | Q_freeze_array_elements_writable
  | Q_keys_includes_nonenumerable
  | Q_getownpropertynames_sorted
  | Q_defineproperty_defaults_writable
  | Q_assign_skips_numeric_keys
  | Q_hasownproperty_walks_proto
  | Q_delete_nonconfigurable_succeeds
  (* --- JSON --- *)
  | Q_json_stringify_undefined_string
  | Q_json_parse_trailing_comma
  | Q_json_stringify_nan_literal
  (* --- RegExp engine component --- *)
  | Q_regex_dot_matches_newline
  | Q_regex_ignorecase_broken
  | Q_regex_class_negation_broken
  (* --- TypedArray / DataView --- *)
  | Q_typedarray_oob_write_crash
  | Q_uint8clamped_wraps
  | Q_dataview_no_bounds_check
  | Q_typedarray_fill_no_coerce
  (* --- eval --- *)
  | Q_eval_expr_returns_undefined
  | Q_eval_string_result_quoted     (** eval of a string expr returns it quoted *)
  (* --- code generation component --- *)
  | Q_codegen_neg_zero_positive     (** [-0] produces [+0]; observable via [1/-0] *)
  | Q_codegen_mod_sign_wrong        (** [(-5) % 3] returns [1] instead of [-2] *)
  | Q_codegen_shift_count_unmasked  (** [1 << 33] computed as [0] (count not masked) *)
  | Q_codegen_ushr_signed           (** [-1 >>> 0] stays [-1] *)
  | Q_codegen_string_relational_numeric  (** ["10" < "9"] compared numerically *)
  | Q_codegen_null_eq_undefined_false    (** [null == undefined] is [false] *)
  | Q_codegen_plus_bool_concat      (** [true + 1] concatenates to ["true1"] *)
  (* --- optimizer component (loop-count-dependent misbehaviour) --- *)
  | Q_opt_int_add_overflow_wraps    (** after 2^31, [x + 1] wraps negative *)
  | Q_opt_loop_strconcat_drops      (** long-running loop drops one [+=] append *)
  (* --- strict-mode-only deviations --- *)
  | Q_strict_undeclared_assign_silent
  | Q_strict_this_is_global
  | Q_strict_delete_unqualified_accepted  (** parser accepts [delete x] in strict code *)
  | Q_strict_dup_params_accepted          (** parser accepts duplicate params in strict code *)

(* Total order for use in sets/maps and stable report output. *)
let compare = Stdlib.compare
let equal a b = compare a b = 0

let all : t list =
  [
    Q_substr_undefined_length_empty; Q_defineproperty_array_length_no_typeerror;
    Q_array_reverse_fill_quadratic; Q_uint32array_fractional_length_typeerror;
    Q_tofixed_no_rangeerror; Q_typedarray_set_string_typeerror;
    Q_bool_prop_appends_to_array; Q_eval_for_missing_body_accepted;
    Q_split_regexp_anchor_bug; Q_normalize_empty_crash;
    Q_seal_string_object_crash; Q_string_big_null_no_typeerror;
    Q_regexp_lastindex_nonwritable_silent; Q_named_funcexpr_binding_mutable;
    Q_replace_dollar_group_literal; Q_replace_fn_missing_offset;
    Q_replace_undefined_search_noop; Q_replace_empty_pattern_skips;
    Q_charat_negative_wraps; Q_padstart_overlong_truncates; Q_trim_missing_vt;
    Q_repeat_negative_empty; Q_string_indexof_fromindex_ignored;
    Q_slice_negative_start_zero; Q_startswith_position_ignored;
    Q_lastindexof_nan_zero; Q_array_sort_numeric_default;
    Q_splice_negative_delcount_deletes; Q_array_indexof_nan_found;
    Q_array_includes_strict_nan; Q_unshift_returns_undefined;
    Q_join_prints_null_undefined; Q_reduce_empty_returns_undefined;
    Q_flat_ignores_depth; Q_array_fill_skips_last;
    Q_tostring_radix_no_rangeerror; Q_toprecision_zero_accepted;
    Q_parseint_no_hex_prefix; Q_parsefloat_trailing_nan;
    Q_number_isinteger_coerces; Q_freeze_array_elements_writable;
    Q_keys_includes_nonenumerable; Q_getownpropertynames_sorted;
    Q_defineproperty_defaults_writable; Q_assign_skips_numeric_keys;
    Q_hasownproperty_walks_proto; Q_delete_nonconfigurable_succeeds;
    Q_json_stringify_undefined_string; Q_json_parse_trailing_comma;
    Q_json_stringify_nan_literal; Q_regex_dot_matches_newline;
    Q_regex_ignorecase_broken; Q_regex_class_negation_broken;
    Q_typedarray_oob_write_crash; Q_uint8clamped_wraps;
    Q_dataview_no_bounds_check; Q_typedarray_fill_no_coerce;
    Q_eval_expr_returns_undefined; Q_eval_string_result_quoted;
    Q_codegen_neg_zero_positive; Q_codegen_mod_sign_wrong;
    Q_codegen_shift_count_unmasked; Q_codegen_ushr_signed;
    Q_codegen_string_relational_numeric; Q_codegen_null_eq_undefined_false;
    Q_codegen_plus_bool_concat; Q_opt_int_add_overflow_wraps;
    Q_opt_loop_strconcat_drops; Q_strict_undeclared_assign_silent;
    Q_strict_this_is_global; Q_strict_delete_unqualified_accepted;
    Q_strict_dup_params_accepted;
  ]

let to_string (q : t) =
  match q with
  | Q_substr_undefined_length_empty -> "substr-undefined-length-empty"
  | Q_defineproperty_array_length_no_typeerror -> "defineproperty-array-length-no-typeerror"
  | Q_array_reverse_fill_quadratic -> "array-reverse-fill-quadratic"
  | Q_uint32array_fractional_length_typeerror -> "uint32array-fractional-length-typeerror"
  | Q_tofixed_no_rangeerror -> "tofixed-no-rangeerror"
  | Q_typedarray_set_string_typeerror -> "typedarray-set-string-typeerror"
  | Q_bool_prop_appends_to_array -> "bool-prop-appends-to-array"
  | Q_eval_for_missing_body_accepted -> "eval-for-missing-body-accepted"
  | Q_split_regexp_anchor_bug -> "split-regexp-anchor-bug"
  | Q_normalize_empty_crash -> "normalize-empty-crash"
  | Q_seal_string_object_crash -> "seal-string-object-crash"
  | Q_string_big_null_no_typeerror -> "string-big-null-no-typeerror"
  | Q_regexp_lastindex_nonwritable_silent -> "regexp-lastindex-nonwritable-silent"
  | Q_named_funcexpr_binding_mutable -> "named-funcexpr-binding-mutable"
  | Q_replace_dollar_group_literal -> "replace-dollar-group-literal"
  | Q_replace_fn_missing_offset -> "replace-fn-missing-offset"
  | Q_replace_undefined_search_noop -> "replace-undefined-search-noop"
  | Q_replace_empty_pattern_skips -> "replace-empty-pattern-skips"
  | Q_charat_negative_wraps -> "charat-negative-wraps"
  | Q_padstart_overlong_truncates -> "padstart-overlong-truncates"
  | Q_trim_missing_vt -> "trim-missing-vt"
  | Q_repeat_negative_empty -> "repeat-negative-empty"
  | Q_string_indexof_fromindex_ignored -> "string-indexof-fromindex-ignored"
  | Q_slice_negative_start_zero -> "slice-negative-start-zero"
  | Q_startswith_position_ignored -> "startswith-position-ignored"
  | Q_lastindexof_nan_zero -> "lastindexof-nan-zero"
  | Q_array_sort_numeric_default -> "array-sort-numeric-default"
  | Q_splice_negative_delcount_deletes -> "splice-negative-delcount-deletes"
  | Q_array_indexof_nan_found -> "array-indexof-nan-found"
  | Q_array_includes_strict_nan -> "array-includes-strict-nan"
  | Q_unshift_returns_undefined -> "unshift-returns-undefined"
  | Q_join_prints_null_undefined -> "join-prints-null-undefined"
  | Q_reduce_empty_returns_undefined -> "reduce-empty-returns-undefined"
  | Q_flat_ignores_depth -> "flat-ignores-depth"
  | Q_array_fill_skips_last -> "array-fill-skips-last"
  | Q_tostring_radix_no_rangeerror -> "tostring-radix-no-rangeerror"
  | Q_toprecision_zero_accepted -> "toprecision-zero-accepted"
  | Q_parseint_no_hex_prefix -> "parseint-no-hex-prefix"
  | Q_parsefloat_trailing_nan -> "parsefloat-trailing-nan"
  | Q_number_isinteger_coerces -> "number-isinteger-coerces"
  | Q_freeze_array_elements_writable -> "freeze-array-elements-writable"
  | Q_keys_includes_nonenumerable -> "keys-includes-nonenumerable"
  | Q_getownpropertynames_sorted -> "getownpropertynames-sorted"
  | Q_defineproperty_defaults_writable -> "defineproperty-defaults-writable"
  | Q_assign_skips_numeric_keys -> "assign-skips-numeric-keys"
  | Q_hasownproperty_walks_proto -> "hasownproperty-walks-proto"
  | Q_delete_nonconfigurable_succeeds -> "delete-nonconfigurable-succeeds"
  | Q_json_stringify_undefined_string -> "json-stringify-undefined-string"
  | Q_json_parse_trailing_comma -> "json-parse-trailing-comma"
  | Q_json_stringify_nan_literal -> "json-stringify-nan-literal"
  | Q_regex_dot_matches_newline -> "regex-dot-matches-newline"
  | Q_regex_ignorecase_broken -> "regex-ignorecase-broken"
  | Q_regex_class_negation_broken -> "regex-class-negation-broken"
  | Q_typedarray_oob_write_crash -> "typedarray-oob-write-crash"
  | Q_uint8clamped_wraps -> "uint8clamped-wraps"
  | Q_dataview_no_bounds_check -> "dataview-no-bounds-check"
  | Q_typedarray_fill_no_coerce -> "typedarray-fill-no-coerce"
  | Q_eval_expr_returns_undefined -> "eval-expr-returns-undefined"
  | Q_eval_string_result_quoted -> "eval-string-result-quoted"
  | Q_codegen_neg_zero_positive -> "codegen-neg-zero-positive"
  | Q_codegen_mod_sign_wrong -> "codegen-mod-sign-wrong"
  | Q_codegen_shift_count_unmasked -> "codegen-shift-count-unmasked"
  | Q_codegen_ushr_signed -> "codegen-ushr-signed"
  | Q_codegen_string_relational_numeric -> "codegen-string-relational-numeric"
  | Q_codegen_null_eq_undefined_false -> "codegen-null-eq-undefined-false"
  | Q_codegen_plus_bool_concat -> "codegen-plus-bool-concat"
  | Q_opt_int_add_overflow_wraps -> "opt-int-add-overflow-wraps"
  | Q_opt_loop_strconcat_drops -> "opt-loop-strconcat-drops"
  | Q_strict_undeclared_assign_silent -> "strict-undeclared-assign-silent"
  | Q_strict_this_is_global -> "strict-this-is-global"
  | Q_strict_delete_unqualified_accepted -> "strict-delete-unqualified-accepted"
  | Q_strict_dup_params_accepted -> "strict-dup-params-accepted"

let of_string s =
  List.find_opt (fun q -> to_string q = s) all

let count = List.length all

(* Stable catalogue position, used to pack quirk sets into machine words.
   An explicit match (not a Hashtbl over [all]): the interpreter consults
   this at every quirk checkpoint on the execution hot path, and a constant
   constructor compiles to its tag, so the whole function is one jump
   table. [test_properties] asserts the match agrees with the position in
   [all] for every constructor. *)
let index : t -> int = function
  | Q_substr_undefined_length_empty -> 0
  | Q_defineproperty_array_length_no_typeerror -> 1
  | Q_array_reverse_fill_quadratic -> 2
  | Q_uint32array_fractional_length_typeerror -> 3
  | Q_tofixed_no_rangeerror -> 4
  | Q_typedarray_set_string_typeerror -> 5
  | Q_bool_prop_appends_to_array -> 6
  | Q_eval_for_missing_body_accepted -> 7
  | Q_split_regexp_anchor_bug -> 8
  | Q_normalize_empty_crash -> 9
  | Q_seal_string_object_crash -> 10
  | Q_string_big_null_no_typeerror -> 11
  | Q_regexp_lastindex_nonwritable_silent -> 12
  | Q_named_funcexpr_binding_mutable -> 13
  | Q_replace_dollar_group_literal -> 14
  | Q_replace_fn_missing_offset -> 15
  | Q_replace_undefined_search_noop -> 16
  | Q_replace_empty_pattern_skips -> 17
  | Q_charat_negative_wraps -> 18
  | Q_padstart_overlong_truncates -> 19
  | Q_trim_missing_vt -> 20
  | Q_repeat_negative_empty -> 21
  | Q_string_indexof_fromindex_ignored -> 22
  | Q_slice_negative_start_zero -> 23
  | Q_startswith_position_ignored -> 24
  | Q_lastindexof_nan_zero -> 25
  | Q_array_sort_numeric_default -> 26
  | Q_splice_negative_delcount_deletes -> 27
  | Q_array_indexof_nan_found -> 28
  | Q_array_includes_strict_nan -> 29
  | Q_unshift_returns_undefined -> 30
  | Q_join_prints_null_undefined -> 31
  | Q_reduce_empty_returns_undefined -> 32
  | Q_flat_ignores_depth -> 33
  | Q_array_fill_skips_last -> 34
  | Q_tostring_radix_no_rangeerror -> 35
  | Q_toprecision_zero_accepted -> 36
  | Q_parseint_no_hex_prefix -> 37
  | Q_parsefloat_trailing_nan -> 38
  | Q_number_isinteger_coerces -> 39
  | Q_freeze_array_elements_writable -> 40
  | Q_keys_includes_nonenumerable -> 41
  | Q_getownpropertynames_sorted -> 42
  | Q_defineproperty_defaults_writable -> 43
  | Q_assign_skips_numeric_keys -> 44
  | Q_hasownproperty_walks_proto -> 45
  | Q_delete_nonconfigurable_succeeds -> 46
  | Q_json_stringify_undefined_string -> 47
  | Q_json_parse_trailing_comma -> 48
  | Q_json_stringify_nan_literal -> 49
  | Q_regex_dot_matches_newline -> 50
  | Q_regex_ignorecase_broken -> 51
  | Q_regex_class_negation_broken -> 52
  | Q_typedarray_oob_write_crash -> 53
  | Q_uint8clamped_wraps -> 54
  | Q_dataview_no_bounds_check -> 55
  | Q_typedarray_fill_no_coerce -> 56
  | Q_eval_expr_returns_undefined -> 57
  | Q_eval_string_result_quoted -> 58
  | Q_codegen_neg_zero_positive -> 59
  | Q_codegen_mod_sign_wrong -> 60
  | Q_codegen_shift_count_unmasked -> 61
  | Q_codegen_ushr_signed -> 62
  | Q_codegen_string_relational_numeric -> 63
  | Q_codegen_null_eq_undefined_false -> 64
  | Q_codegen_plus_bool_concat -> 65
  | Q_opt_int_add_overflow_wraps -> 66
  | Q_opt_loop_strconcat_drops -> 67
  | Q_strict_undeclared_assign_silent -> 68
  | Q_strict_this_is_global -> 69
  | Q_strict_delete_unqualified_accepted -> 70
  | Q_strict_dup_params_accepted -> 71

(* Quirk sets: a two-word bitset over the catalogue, bit [index q] of the
   pair (bits 0–61 in the first word, 62–123 in the second). The
   interpreter records a bit at every quirk checkpoint and the
   execution-sharing layer intersects and compares sets per testbed per
   case; on packed words each is a couple of integer instructions. A set
   is an immutable pair of immediates, so [(=)] and [Hashtbl.hash] agree
   with [equal]. Enumeration ([elements], [iter], [fold], [choose_opt])
   runs in ascending [index] order, which is declaration order and so
   [compare] order. Two words cover at most 124 quirks. *)
module Set = struct
  type t = int * int

  let empty : t = (0, 0)

  let add q ((lo, hi) : t) : t =
    let i = index q in
    if i < 62 then (lo lor (1 lsl i), hi) else (lo, hi lor (1 lsl (i - 62)))

  let singleton q : t = add q empty

  let remove q ((lo, hi) : t) : t =
    let i = index q in
    if i < 62 then (lo land lnot (1 lsl i), hi)
    else (lo, hi land lnot (1 lsl (i - 62)))

  let inter ((a, b) : t) ((c, d) : t) : t = (a land c, b land d)
  let union ((a, b) : t) ((c, d) : t) : t = (a lor c, b lor d)
  let diff ((a, b) : t) ((c, d) : t) : t = (a land lnot c, b land lnot d)
  let equal ((a, b) : t) ((c, d) : t) = a = c && b = d
  let is_empty ((a, b) : t) = a = 0 && b = 0

  (* a ⊆ b *)
  let subset ((a, b) : t) ((c, d) : t) = a land lnot c = 0 && b land lnot d = 0

  let mem q ((lo, hi) : t) =
    let i = index q in
    if i < 62 then lo land (1 lsl i) <> 0 else hi land (1 lsl (i - 62)) <> 0

  let cardinal ((lo, hi) : t) =
    let rec pop n x = if x = 0 then n else pop (n + 1) (x land (x - 1)) in
    pop 0 lo + pop 0 hi

  let by_index = Array.of_list all

  let fold f ((lo, hi) : t) acc =
    let rec go w i acc =
      if w = 0 then acc
      else go (w lsr 1) (i + 1) (if w land 1 <> 0 then f by_index.(i) acc else acc)
    in
    go hi 62 (go lo 0 acc)

  let iter f s = fold (fun q () -> f q) s ()
  let elements s = List.rev (fold List.cons s [])
  let of_list qs = List.fold_left (fun s q -> add q s) empty qs

  (* the least element, as [Stdlib.Set.choose_opt] returns *)
  let choose_opt ((lo, hi) : t) =
    let rec low w i = if w land 1 <> 0 then i else low (w lsr 1) (i + 1) in
    if lo <> 0 then Some by_index.(low lo 0)
    else if hi <> 0 then Some by_index.(low hi 62)
    else None
end
