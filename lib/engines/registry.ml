(* The simulated engine/version registry (paper Table 1: 10 engines, 51
   engine-version configurations).

   A [config] is an engine version: a quirk set (the bugs present in that
   build) plus a front-end profile (the ECMAScript edition the version
   supports). Quirks are assigned version ranges [since, fixed): bugs can be
   introduced by a release (e.g. the wave of ES2015-transition bugs in Rhino
   1.7.12 and JerryScript 2.2.0 the paper highlights in §5.1.1) and fixed by
   a later one (e.g. the SpiderMonkey Uint32Array bug gone by v60). *)

open Jsinterp

type engine =
  | V8
  | ChakraCore
  | JSC
  | SpiderMonkey
  | Rhino
  | Nashorn
  | Hermes
  | JerryScript
  | QuickJS
  | Graaljs

let engine_name = function
  | V8 -> "V8"
  | ChakraCore -> "ChakraCore"
  | JSC -> "JSC"
  | SpiderMonkey -> "SpiderMonkey"
  | Rhino -> "Rhino"
  | Nashorn -> "Nashorn"
  | Hermes -> "Hermes"
  | JerryScript -> "JerryScript"
  | QuickJS -> "QuickJS"
  | Graaljs -> "Graaljs"

let all_engines =
  [ V8; ChakraCore; JSC; SpiderMonkey; Rhino; Nashorn; Hermes; JerryScript; QuickJS; Graaljs ]

type es_edition = ES5 | ES2015 | ES2019 | ES2020

let es_to_string = function
  | ES5 -> "ES5.1"
  | ES2015 -> "ES2015"
  | ES2019 -> "ES2019"
  | ES2020 -> "ES2020"

(* The effective front end of a config is fully determined by its base
   option set (ES5 vs standard — see [parse_opts_of_config]) plus the
   three parser-level quirks that [Run.parse_opts_of] folds in. [parse_key]
   projects exactly those inputs into a flat record of booleans, giving a
   comparable and hashable cache key: two configs with equal keys parse any
   source identically and sink the same parse-stage quirks, so one parse
   can serve both. The parser's [quirk_sink] closure makes the options
   record itself unusable as a key. *)

type parse_key = {
  pk_es5 : bool;               (** base front end is the ES5.1 profile *)
  pk_for_missing_body : bool;  (** [Q_eval_for_missing_body_accepted] *)
  pk_dup_params : bool;        (** [Q_strict_dup_params_accepted] *)
  pk_delete_unqualified : bool;(** [Q_strict_delete_unqualified_accepted] *)
}

(* Injective low-4-bit packing, so cache tables can key on a plain int
   (plus mode/fuel bits) instead of polymorphic-hashing the record — the
   lookup runs per testbed per case on the campaign hot path. *)
let pk_int (pk : parse_key) : int =
  (if pk.pk_es5 then 1 else 0)
  lor (if pk.pk_for_missing_body then 2 else 0)
  lor (if pk.pk_dup_params then 4 else 0)
  lor (if pk.pk_delete_unqualified then 8 else 0)

type config = {
  cfg_engine : engine;
  cfg_version : string;
  cfg_build : string;
  cfg_release : string;
  cfg_es : es_edition;
  cfg_quirks : Quirk.Set.t;
  cfg_pkey : parse_key;
      (** the config's [parse_key], precomputed once — the
          execution-sharing cache consumes it per testbed per case *)
  cfg_index : int;  (** position in the engine's version history, oldest = 0 *)
}

let id (c : config) = Printf.sprintf "%s-%s" (engine_name c.cfg_engine) c.cfg_version

(* (version, build, release, edition) — oldest first *)
let version_rows (e : engine) : (string * string * string * es_edition) list =
  match e with
  | V8 ->
      [
        ("8.5-0e44fef", "0e44fef", "Apr 2019", ES2019);
        ("8.5-e39c701", "e39c701", "Aug 2019", ES2019);
        ("8.5-d891c59", "d891c59", "Jun 2020", ES2019);
      ]
  | ChakraCore ->
      [
        ("1.11.8", "dbfb5bd", "Apr 2019", ES2019);
        ("1.11.12", "e1f5b03", "Aug 2019", ES2019);
        ("1.11.13", "8fcb0f1", "Aug 2019", ES2019);
        ("1.11.16", "eaaf7ac", "Nov 2019", ES2019);
        ("1.11.19", "5ed2985", "May 2020", ES2019);
      ]
  | JSC ->
      [
        ("244445", "b3fa4c5", "Apr 2019", ES2019);
        ("246135", "d940b47", "Jun 2019", ES2019);
        ("251631", "b96bf75", "Oct 2019", ES2019);
        ("261782", "dbae081", "May 2020", ES2019);
      ]
  | SpiderMonkey ->
      [
        ("1.7.0", "js-1.7.0", "2007", ES5);
        ("38.3.0", "mozjs38.3.0", "2015", ES5);
        ("52.9", "mozjs52.9.1pre", "2018", ES2015);
        ("60.1.1", "mozjs60.1.1pre", "2018", ES2015);
        ("gecko-201255a", "201255a", "2019", ES2019);
        ("gecko-2c619e2", "2c619e2", "2020", ES2019);
        ("78.0", "C69.0a1", "2020", ES2019);
      ]
  | Rhino ->
      [
        ("1.7R3", "d1a8338", "Apr 2011", ES5);
        ("1.7R4", "82ffb8f", "Jun 2012", ES5);
        ("1.7R5", "584e7ec", "Jan 2015", ES5);
        ("1.7.9", "3ee580e", "Mar 2018", ES2015);
        ("1.7.10", "1692f5f", "May 2019", ES2015);
        ("1.7.11", "f0e1c63", "May 2019", ES2015);
        ("1.7.12", "d4021ee", "Jan 2020", ES2015);
      ]
  | Nashorn ->
      [
        ("1.7.6", "JDK7u65", "May 2014", ES5);
        ("1.8.0_201", "JDK8u201", "Jan 2019", ES5);
        ("11.0.3", "JDK11.0.3", "Mar 2019", ES2015);
        ("12.0.1", "JDK12.0.1", "Apr 2019", ES2015);
        ("13.0.1", "JDK13.0.1", "Sep 2019", ES2015);
      ]
  | Hermes ->
      [
        ("0.1.1", "3ed8340", "Jul 2019", ES2015);
        ("0.3.0", "3826084", "Sep 2019", ES2015);
        ("0.4.0", "044cf4b", "Dec 2019", ES2015);
        ("0.6.0", "b6530ae", "May 2020", ES2015);
      ]
  | JerryScript ->
      [
        ("1.0", "e944cda", "2016", ES5);
        ("2.0", "40f7b1c", "Apr 2019", ES2015);
        ("2.0-b6fc4e1", "b6fc4e1", "May 2019", ES2015);
        ("2.0-351acdf", "351acdf", "Jun 2019", ES2015);
        ("2.1.0", "9ab4872", "Sep 2019", ES2015);
        ("2.1.0-84a56ef", "84a56ef", "Oct 2019", ES2015);
        ("2.2.0", "7df87b7", "Oct 2019", ES2015);
        ("2.2.0-996bf76", "996bf76", "Nov 2019", ES2015);
        ("2.3.0", "bd1c4df", "May 2020", ES2015);
      ]
  | QuickJS ->
      [
        ("2019-07-09", "9ccefbf", "Jul 2019", ES2019);
        ("2019-09-01", "3608b16", "Sep 2019", ES2019);
        ("2019-09-18", "6e76fd9", "Sep 2019", ES2019);
        ("2019-10-27", "eb34626", "Oct 2019", ES2019);
        ("2020-01-05", "91459fb", "Jan 2020", ES2019);
        ("2020-04-12", "1722758", "Apr 2020", ES2019);
      ]
  | Graaljs -> [ ("20.1.0", "299f61f", "May 2020", ES2020) ]

(* Bug assignments: (quirk, version introduced, version fixed). *)
type assignment = { aq : Quirk.t; since : int; fixed : int option }

let a ?(since = 0) ?fixed aq = { aq; since; fixed }

let assignments (e : engine) : assignment list =
  Quirk.(
    match e with
    | V8 ->
        [
          a Q_defineproperty_array_length_no_typeerror;
          a Q_opt_int_add_overflow_wraps;
          a ~since:1 Q_json_stringify_nan_literal;
          a ~since:2 Q_keys_includes_nonenumerable;
        ]
    | ChakraCore ->
        [
          a Q_eval_for_missing_body_accepted;
          a Q_codegen_shift_count_unmasked;
          a ~since:1 Q_dataview_no_bounds_check;
          a ~since:2 Q_eval_expr_returns_undefined;
          a ~since:3 Q_replace_fn_missing_offset;
          a ~since:3 Q_startswith_position_ignored;
          a ~since:3 Q_json_stringify_nan_literal;
        ]
    | JSC ->
        [
          a ~fixed:3 Q_typedarray_set_string_typeerror;
          a ~since:1 Q_codegen_mod_sign_wrong;
          a ~since:1 Q_splice_negative_delcount_deletes;
          a ~since:1 Q_padstart_overlong_truncates;
          a ~since:1 Q_json_parse_trailing_comma;
          a ~since:1 Q_regex_dot_matches_newline;
          a ~since:1 Q_array_fill_skips_last;
          a ~since:1 Q_strict_delete_unqualified_accepted;
          a ~since:2 Q_toprecision_zero_accepted;
          a ~since:3 Q_keys_includes_nonenumerable;
        ]
    | SpiderMonkey ->
        [
          a ~fixed:1 Q_lastindexof_nan_zero;
          a ~since:1 ~fixed:2 Q_getownpropertynames_sorted;
          a ~since:2 ~fixed:3 Q_uint32array_fractional_length_typeerror;
        ]
    | Rhino ->
        [
          a ~since:4 Q_substr_undefined_length_empty;
          a ~since:4 Q_tofixed_no_rangeerror;
          a ~since:5 Q_seal_string_object_crash;
          a ~since:5 Q_string_big_null_no_typeerror;
          a ~since:5 Q_regexp_lastindex_nonwritable_silent;
          a ~since:5 Q_named_funcexpr_binding_mutable;
          a ~since:5 Q_replace_dollar_group_literal;
          a ~since:5 Q_replace_undefined_search_noop;
          a ~since:5 Q_charat_negative_wraps;
          a ~since:5 Q_trim_missing_vt;
          a ~since:5 Q_repeat_negative_empty;
          a ~since:5 Q_string_indexof_fromindex_ignored;
          a ~since:6 Q_slice_negative_start_zero;
          a ~since:6 Q_array_sort_numeric_default;
          a ~since:6 Q_join_prints_null_undefined;
          a ~since:6 Q_reduce_empty_returns_undefined;
          a ~since:6 Q_tostring_radix_no_rangeerror;
          a ~since:6 Q_parseint_no_hex_prefix;
          a ~since:6 Q_freeze_array_elements_writable;
          a ~since:6 Q_hasownproperty_walks_proto;
          a ~since:6 Q_delete_nonconfigurable_succeeds;
          a ~since:6 Q_json_stringify_undefined_string;
          a ~since:6 Q_regex_ignorecase_broken;
          a ~since:6 Q_codegen_string_relational_numeric;
          a ~since:6 Q_strict_undeclared_assign_silent;
          a ~since:6 Q_strict_dup_params_accepted;
        ]
    | Nashorn ->
        [
          a ~since:3 Q_parsefloat_trailing_nan;
          a ~since:3 Q_number_isinteger_coerces;
          a ~since:3 Q_assign_skips_numeric_keys;
          a ~since:3 Q_codegen_null_eq_undefined_false;
          a ~since:3 Q_codegen_plus_bool_concat;
          a ~since:3 Q_unshift_returns_undefined;
          a ~since:3 Q_eval_string_result_quoted;
          a ~since:4 Q_defineproperty_defaults_writable;
          a ~since:4 Q_strict_this_is_global;
          a ~since:4 Q_toprecision_zero_accepted;
          a ~since:4 Q_array_sort_numeric_default;
        ]
    | Hermes ->
        [
          a ~fixed:1 Q_array_reverse_fill_quadratic;
          a Q_named_funcexpr_binding_mutable;
          a Q_replace_empty_pattern_skips;
          a ~since:1 Q_flat_ignores_depth;
          a ~since:1 Q_uint8clamped_wraps;
          a ~since:1 Q_codegen_neg_zero_positive;
          a ~since:2 Q_regex_class_negation_broken;
          a ~since:3 Q_opt_loop_strconcat_drops;
          a ~since:3 Q_eval_expr_returns_undefined;
        ]
    | JerryScript ->
        [
          a Q_trim_missing_vt;
          a ~since:1 Q_regex_ignorecase_broken;
          a ~since:1 Q_strict_undeclared_assign_silent;
          a ~since:4 Q_typedarray_oob_write_crash;
          a ~since:4 Q_join_prints_null_undefined;
          a ~since:4 Q_tostring_radix_no_rangeerror;
          a ~since:6 Q_split_regexp_anchor_bug;
          a ~since:6 Q_regexp_lastindex_nonwritable_silent;
          a ~since:6 Q_array_indexof_nan_found;
          a ~since:6 Q_array_includes_strict_nan;
          a ~since:6 Q_typedarray_fill_no_coerce;
          a ~since:6 Q_codegen_ushr_signed;
          a ~since:6 Q_repeat_negative_empty;
        ]
    | QuickJS ->
        [
          a Q_codegen_mod_sign_wrong;
          a Q_parseint_no_hex_prefix;
          a ~since:1 Q_replace_dollar_group_literal;
          a ~since:1 Q_eval_string_result_quoted;
          a ~since:2 Q_slice_negative_start_zero;
          a ~since:3 Q_json_parse_trailing_comma;
          a ~since:3 Q_dataview_no_bounds_check;
          a ~since:4 Q_bool_prop_appends_to_array;
          a ~since:5 Q_normalize_empty_crash;
        ]
    | Graaljs ->
        [
          a Q_defineproperty_array_length_no_typeerror;
          a Q_typedarray_set_string_typeerror;
        ])

let configs_of (e : engine) : config list =
  let rows = version_rows e in
  let asg = assignments e in
  List.mapi
    (fun idx (version, build, release, es) ->
      let quirks =
        List.fold_left
          (fun acc { aq; since; fixed } ->
            let live =
              idx >= since
              && match fixed with Some f -> idx < f | None -> true
            in
            if live then Quirk.Set.add aq acc else acc)
          Quirk.Set.empty asg
      in
      let mem q = Quirk.Set.mem q quirks in
      {
        cfg_engine = e;
        cfg_version = version;
        cfg_build = build;
        cfg_release = release;
        cfg_es = es;
        cfg_quirks = quirks;
        cfg_pkey =
          {
            pk_es5 = (es = ES5);
            pk_for_missing_body = mem Quirk.Q_eval_for_missing_body_accepted;
            pk_dup_params = mem Quirk.Q_strict_dup_params_accepted;
            pk_delete_unqualified =
              mem Quirk.Q_strict_delete_unqualified_accepted;
          };
        cfg_index = idx;
      })
    rows

let all_configs : config list = List.concat_map configs_of all_engines

let latest (e : engine) : config =
  let cs = configs_of e in
  List.nth cs (List.length cs - 1)

let find_config ~engine ~version : config option =
  List.find_opt
    (fun c -> c.cfg_engine = engine && c.cfg_version = version)
    all_configs

(* Ground truth: the distinct (engine, quirk) pairs that exist anywhere in
   the registry — i.e. the total population of unique bugs a perfect fuzzer
   could find. *)
let all_bugs : (engine * Quirk.t) list =
  List.concat_map (fun e -> List.map (fun x -> (e, x.aq)) (assignments e)) all_engines

(* Earliest version of [e] exhibiting quirk [q] (Table 3's attribution
   rule). *)
let earliest_version (e : engine) (q : Quirk.t) : string option =
  List.find_map
    (fun c -> if Quirk.Set.mem q c.cfg_quirks then Some c.cfg_version else None)
    (configs_of e)

let parse_opts_of_config (c : config) : Jsparse.Parser.options =
  match c.cfg_es with
  | ES5 -> Jsparse.Parser.es5_options
  | ES2015 | ES2019 | ES2020 -> Jsparse.Parser.default_options

(* The conforming reference front end: standard profile, no parser quirks.
   Reference runs routed through the execution-sharing cache use this key,
   so they join the parse/execution groups of any standard-front-end,
   parser-quirk-free engine. *)
let reference_parse_key : parse_key =
  {
    pk_es5 = false;
    pk_for_missing_body = false;
    pk_dup_params = false;
    pk_delete_unqualified = false;
  }

let parse_key (c : config) : parse_key = c.cfg_pkey
