(* Ground-truth metadata for every injected quirk.

   This is the oracle against which fuzzing campaigns are scored: a campaign
   "discovers a bug" when differential testing flags a deviation whose
   deviating testbed fired the quirk. The metadata mirrors what the paper
   reports per bug: the JS API involved, its object type (Table 5), the
   affected compiler component (Fig. 7), developer confirmation status
   (Tables 2-3), whether the generated test case was accepted into Test262,
   and which part of the Comfort pipeline is in principle needed to expose
   it (Table 4):

   - [`Gen]: reachable by plain generated programs (program-generation bugs)
   - [`Ecma]: needs specification-guided test data (boundary values such as
     [undefined] arguments, out-of-range digits, non-configurable flags) *)

open Jsinterp

type component =
  | CodeGen
  | Implementation
  | Parser
  | RegexEngine
  | Optimizer
  | StrictModeOnly

let component_to_string = function
  | CodeGen -> "CodeGen"
  | Implementation -> "Implementation"
  | Parser -> "Parser"
  | RegexEngine -> "Regex Engine"
  | Optimizer -> "Optimizer"
  | StrictModeOnly -> "Strict mode"

type status =
  | Fixed              (** confirmed and fixed by developers *)
  | Verified           (** confirmed, fix pending *)
  | Under_discussion
  | Rejected           (** e.g. feature unclear in the targeted edition *)

type origin = [ `Gen | `Ecma ]

type meta = {
  quirk : Quirk.t;
  api : string;           (** e.g. "String.prototype.substr" *)
  object_type : string;   (** Table 5 grouping *)
  component : component;
  status : status;
  newly_discovered : bool;
  test262_accepted : bool;
  origin : origin;
  strict_only : bool;
}

let m ?(status = Fixed) ?(new_ = true) ?(t262 = false) ?(strict = false)
    quirk api object_type component origin =
  {
    quirk;
    api;
    object_type;
    component;
    status;
    newly_discovered = new_;
    test262_accepted = t262;
    origin;
    strict_only = strict;
  }

let all : meta list =
  Quirk.
    [
      (* paper-reported bugs *)
      m Q_substr_undefined_length_empty "String.prototype.substr" "String"
        Implementation `Ecma ~t262:true;
      m Q_defineproperty_array_length_no_typeerror "Object.defineProperty"
        "Object" Implementation `Ecma ~t262:true;
      m Q_array_reverse_fill_quadratic "Array" "Array" CodeGen `Gen;
      m Q_uint32array_fractional_length_typeerror "Uint32Array" "TypedArray"
        Implementation `Ecma ~new_:false;
      m Q_tofixed_no_rangeerror "Number.prototype.toFixed" "Number"
        Implementation `Ecma ~t262:true;
      m Q_typedarray_set_string_typeerror "%TypedArray%.prototype.set"
        "TypedArray" Implementation `Ecma ~t262:true;
      m Q_bool_prop_appends_to_array "Array" "Array" CodeGen `Ecma;
      m Q_eval_for_missing_body_accepted "eval" "eval function" Parser `Ecma
        ~t262:true;
      m Q_split_regexp_anchor_bug "String.prototype.split" "String"
        RegexEngine `Gen ~t262:true;
      m Q_normalize_empty_crash "String.prototype.normalize" "String" CodeGen
        `Gen;
      m Q_seal_string_object_crash "Object.seal" "Object" CodeGen `Gen
        ~new_:false;
      m Q_string_big_null_no_typeerror "String.prototype.big" "String"
        Implementation `Ecma ~new_:false;
      m Q_regexp_lastindex_nonwritable_silent "RegExp.prototype.compile"
        "RegExp" Implementation `Ecma ~new_:false;
      m Q_named_funcexpr_binding_mutable "Function" "Object" CodeGen `Gen
        ~new_:false ~status:Verified;
      (* String *)
      m Q_replace_dollar_group_literal "String.prototype.replace" "String"
        Implementation `Gen;
      m Q_replace_fn_missing_offset "String.prototype.replace" "String"
        Implementation `Gen;
      m Q_replace_undefined_search_noop "String.prototype.replace" "String"
        Implementation `Ecma ~t262:true;
      m Q_replace_empty_pattern_skips "String.prototype.replace" "String"
        Implementation `Ecma;
      m Q_charat_negative_wraps "String.prototype.charAt" "String"
        Implementation `Ecma;
      m Q_padstart_overlong_truncates "String.prototype.padStart" "String"
        Implementation `Ecma ~t262:true;
      m Q_trim_missing_vt "String.prototype.trim" "String" Implementation `Gen;
      m Q_repeat_negative_empty "String.prototype.repeat" "String"
        Implementation `Ecma ~t262:true;
      m Q_string_indexof_fromindex_ignored "String.prototype.indexOf" "String"
        Implementation `Gen;
      m Q_slice_negative_start_zero "String.prototype.slice" "String"
        Implementation `Ecma;
      m Q_startswith_position_ignored "String.prototype.startsWith" "String"
        Implementation `Gen ~status:Verified;
      m Q_lastindexof_nan_zero "String.prototype.lastIndexOf" "String"
        Implementation `Ecma ~t262:true;
      (* Array *)
      m Q_array_sort_numeric_default "Array.prototype.sort" "Array"
        Implementation `Gen;
      m Q_splice_negative_delcount_deletes "Array.prototype.splice" "Array"
        Implementation `Ecma ~t262:true;
      m Q_array_indexof_nan_found "Array.prototype.indexOf" "Array"
        Implementation `Ecma;
      m Q_array_includes_strict_nan "Array.prototype.includes" "Array"
        Implementation `Ecma ~t262:true;
      m Q_unshift_returns_undefined "Array.prototype.unshift" "Array"
        Implementation `Gen;
      m Q_join_prints_null_undefined "Array.prototype.join" "Array"
        Implementation `Gen;
      m Q_reduce_empty_returns_undefined "Array.prototype.reduce" "Array"
        Implementation `Ecma ~t262:true;
      m Q_flat_ignores_depth "Array.prototype.flat" "Array" Implementation
        `Gen ~status:Verified;
      m Q_array_fill_skips_last "Array.prototype.fill" "Array" Implementation
        `Gen;
      (* Number *)
      m Q_tostring_radix_no_rangeerror "Number.prototype.toString" "Number"
        Implementation `Ecma ~t262:true;
      m Q_toprecision_zero_accepted "Number.prototype.toPrecision" "Number"
        Implementation `Ecma;
      m Q_parseint_no_hex_prefix "parseInt" "Number" Implementation `Gen;
      m Q_parsefloat_trailing_nan "parseFloat" "Number" Implementation `Gen;
      m Q_number_isinteger_coerces "Number.isInteger" "Number" Implementation
        `Ecma ~status:Verified;
      (* Object *)
      m Q_freeze_array_elements_writable "Object.freeze" "Object"
        Implementation `Ecma ~t262:true;
      m Q_keys_includes_nonenumerable "Object.keys" "Object" Implementation
        `Gen;
      m Q_getownpropertynames_sorted "Object.getOwnPropertyNames" "Object"
        Implementation `Gen ~status:Under_discussion;
      m Q_defineproperty_defaults_writable "Object.defineProperty" "Object"
        Implementation `Ecma ~t262:true;
      m Q_assign_skips_numeric_keys "Object.assign" "Object" Implementation
        `Gen;
      m Q_hasownproperty_walks_proto "Object.prototype.hasOwnProperty"
        "Object" Implementation `Gen;
      m Q_delete_nonconfigurable_succeeds "Object.defineProperty" "Object"
        CodeGen `Ecma;
      (* JSON *)
      m Q_json_stringify_undefined_string "JSON.stringify" "JSON"
        Implementation `Ecma;
      m Q_json_parse_trailing_comma "JSON.parse" "JSON" Parser `Gen;
      m Q_json_stringify_nan_literal "JSON.stringify" "JSON" Implementation
        `Gen;
      (* regex engine *)
      m Q_regex_dot_matches_newline "RegExp" "RegExp" RegexEngine `Gen;
      m Q_regex_ignorecase_broken "RegExp" "RegExp" RegexEngine `Gen;
      m Q_regex_class_negation_broken "RegExp" "RegExp" RegexEngine `Gen
        ~status:Verified;
      (* typed arrays / DataView *)
      m Q_typedarray_oob_write_crash "%TypedArray%" "TypedArray" CodeGen `Gen;
      m Q_uint8clamped_wraps "Uint8ClampedArray" "TypedArray" Implementation
        `Ecma;
      m Q_dataview_no_bounds_check "DataView.prototype.getUint8" "DataView"
        Implementation `Ecma;
      m Q_typedarray_fill_no_coerce "%TypedArray%.prototype.fill" "TypedArray"
        Implementation `Gen ~status:Verified;
      (* eval *)
      m Q_eval_expr_returns_undefined "eval" "eval function" Implementation
        `Gen;
      m Q_eval_string_result_quoted "eval" "eval function" Implementation `Gen
        ~status:Rejected ~new_:false;
      (* code generation *)
      m Q_codegen_neg_zero_positive "unary -" "Number" CodeGen `Gen;
      m Q_codegen_mod_sign_wrong "%" "Number" CodeGen `Gen;
      m Q_codegen_shift_count_unmasked "<<" "Number" CodeGen `Gen;
      m Q_codegen_ushr_signed ">>>" "Number" CodeGen `Gen;
      m Q_codegen_string_relational_numeric "<" "String" CodeGen `Gen;
      m Q_codegen_null_eq_undefined_false "==" "Object" CodeGen `Gen;
      m Q_codegen_plus_bool_concat "+" "Object" CodeGen `Gen;
      (* optimizer *)
      m Q_opt_int_add_overflow_wraps "+" "Number" Optimizer `Gen;
      m Q_opt_loop_strconcat_drops "+=" "String" Optimizer `Gen
        ~status:Verified;
      (* strict-mode-only *)
      m Q_strict_undeclared_assign_silent "assignment" "Object" StrictModeOnly
        `Gen ~strict:true;
      m Q_strict_this_is_global "this" "Object" StrictModeOnly `Gen
        ~strict:true ~status:Under_discussion;
      m Q_strict_delete_unqualified_accepted "delete" "Object" StrictModeOnly
        `Gen ~strict:true;
      m Q_strict_dup_params_accepted "Function" "Object" StrictModeOnly `Gen
        ~strict:true;
    ]

let find (q : Quirk.t) : meta =
  match List.find_opt (fun x -> Quirk.equal x.quirk q) all with
  | Some x -> x
  | None ->
      invalid_arg ("Catalogue.find: quirk not in catalogue: " ^ Quirk.to_string q)

let () =
  (* every quirk must carry metadata; fail fast at link time otherwise *)
  assert (List.length all = List.length Quirk.all)
