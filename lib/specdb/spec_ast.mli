(** The extracted-specification AST of the paper's Figure 4.

    Each ECMA-262 function/constructor section parses to an {!entry}: the
    API name plus one {!param} per formal parameter, carrying the inferred
    argument type, the boundary values worth probing and the textual
    boundary conditions the pseudo-code mentions. {!to_json} emits the
    Figure 4(b) shape. *)

type jtype =
  | Tinteger
  | Tnumber
  | Tstring
  | Tboolean
  | Tobject
  | Tfunction
  | Tany

(** A boundary value is a small JS expression in source form (e.g.
    ["undefined"], ["-1"], ["\"\""]) so the data generator can splice it
    into test programs directly. *)
type boundary = string

type param = {
  p_name : string;
  p_type : jtype;
  p_values : boundary list;
  p_conditions : string list;  (** e.g. ["length === undefined"] *)
  p_optional : bool;
}

type entry = {
  e_name : string;             (** e.g. "String.prototype.substr" *)
  e_params : param list;
  e_receiver : jtype;          (** type of a sensible [this] value *)
  e_returns_exn : string list; (** exception kinds the steps may throw *)
  e_rule_count : int;          (** numbered steps + prose lines *)
  e_parsed_rules : int;        (** rules the extractor understood *)
}

val to_json : entry -> string
