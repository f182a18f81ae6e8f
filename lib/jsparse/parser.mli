(** Recursive-descent parser for the JavaScript subset.

    The parser is parameterised by {!options} so that each simulated engine
    can exhibit its own front-end behaviour: older engines reject ES2015
    syntax outright, and some engines carry parser conformance bugs (e.g.
    accepting a [for] head with no body — the ChakraCore bug of the paper's
    Listing 7). The default options model a standard-conforming ES2019
    front end, which is also the pipeline's JSHint-substitute syntax
    oracle. *)

exception Syntax_error of string * int  (** message, line *)

type options = {
  accept_for_missing_body : bool;
      (** quirk: treat [for(head)] with no body as an empty loop *)
  accept_dup_params_strict : bool;
      (** quirk: no SyntaxError on duplicate params in strict mode *)
  accept_strict_delete_unqualified : bool;
      (** quirk: no SyntaxError on [delete x] in strict mode *)
  quirk_sink : string -> unit;
      (** called with the quirk name when a quirk-gated acceptance actually
          fires, so campaigns can attribute parse-stage deviations *)
  strict_sensitive_sink : unit -> unit;
      (** called whenever the parse reaches a construct whose outcome
          depends on the ambient strict flag (duplicate parameters,
          assignment to eval/arguments, [delete identifier]). If a sloppy
          parse never calls it, a [force_strict] parse of the same source
          is guaranteed identical, so front-end caches can share one
          parse across modes. *)
  edition_sensitive_sink : unit -> unit;
      (** called whenever the parse reaches a construct gated by one of
          the [reject_*] flags below (let/const, for-of, arrow functions,
          [**], template literals, a sticky regexp), whether or not the
          flag is set. If a parse under [default_options] never calls
          it, an [es5_options] parse of the same source is guaranteed
          identical — same program or same syntax error, same sunk
          quirks — so front-end caches can share one parse across ES
          profiles. *)
  reject_template_literals : bool;  (** pre-ES2015 front end *)
  reject_arrow_functions : bool;    (** pre-ES2015 front end *)
  reject_let_const : bool;          (** pre-ES2015 front end *)
  reject_for_of : bool;             (** pre-ES2015 front end *)
  reject_exponent_op : bool;        (** pre-ES2016 front end *)
  reject_regexp_sticky : bool;      (** pre-ES2015: flag [y] unsupported *)
}

(** A standard-conforming ES2019 front end. *)
val default_options : options

(** The front end of an engine that only implements ES5.1. *)
val es5_options : options

(** Parse a whole program. [force_strict] models a strict-mode testbed
    where the entire script is treated as strict code (strict-only parse
    rules apply even without a directive).
    @raise Syntax_error on invalid input. *)
val parse_program : ?opts:options -> ?force_strict:bool -> string -> Jsast.Ast.program

(** JSHint substitute: validity under the standard front end. *)
val check_syntax : string -> (Jsast.Ast.program, string * int) result

val is_valid : string -> bool

(** Cumulative number of {!parse_program} invocations in this process
    ([check_syntax]/[is_valid] parse too). Read it before and after an
    operation to measure how many front-end passes it cost — the
    campaign's per-case parse cache is tested against this counter, the
    [jsparse.parses] entry of {!Cutil.Counter}. *)
val parse_count : unit -> int
