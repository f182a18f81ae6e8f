(* The extracted-specification AST of the paper's Figure 4.

   Each ECMA-262 function/constructor section parses to an [entry]: the API
   name plus one [param] per formal parameter, carrying the inferred
   argument type, the boundary values worth probing, and the textual
   boundary conditions the pseudo-code mentions. The [to_json] printer emits
   the Figure 4(b) shape. *)

type jtype =
  | Tinteger
  | Tnumber
  | Tstring
  | Tboolean
  | Tobject
  | Tfunction
  | Tany

let jtype_to_string = function
  | Tinteger -> "integer"
  | Tnumber -> "number"
  | Tstring -> "string"
  | Tboolean -> "boolean"
  | Tobject -> "object"
  | Tfunction -> "function"
  | Tany -> "any"

(* A boundary value is a small JS expression in source form, e.g.
   ["undefined"], ["NaN"], ["-1"], ["\"\""]. Keeping source text (rather
   than a semantic value) is what lets the data generator splice them into
   test programs directly. *)
type boundary = string

type param = {
  p_name : string;
  p_type : jtype;
  p_values : boundary list;     (** boundary values from the spec text *)
  p_conditions : string list;   (** e.g. ["length === undefined"] *)
  p_optional : bool;
}

type entry = {
  e_name : string;              (** e.g. "String.prototype.substr" *)
  e_params : param list;
  e_receiver : jtype;           (** type of a sensible [this] value *)
  e_returns_exn : string list;  (** exception kinds the steps may throw *)
  e_rule_count : int;           (** numbered steps in the section *)
  e_parsed_rules : int;         (** steps the extractor understood *)
}

let quote s = "\"" ^ String.concat "\\\"" (String.split_on_char '"' s) ^ "\""

let param_to_json (p : param) : string =
  Printf.sprintf
    "{ \"name\": %s, \"type\": %s, \"values\": [%s], \"conditions\": [%s] }"
    (quote p.p_name)
    (quote (jtype_to_string p.p_type))
    (String.concat ", " (List.map quote p.p_values))
    (String.concat ", " (List.map quote p.p_conditions))

let to_json (e : entry) : string =
  Printf.sprintf "{ %s: [%s] }" (quote e.e_name)
    (String.concat ", " (List.map param_to_json e.e_params))
