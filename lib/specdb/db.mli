(** The structured specification database (the JSON store of Figure 3/4).

    Lookup happens by the last path component of the API name, because the
    data generator sees call sites like [str.substr(a, b)] whose receiver
    type is unknown statically — matching ["substr"] against
    ["String.prototype.substr"] is exactly what the paper's tool does. *)

type t = {
  entries : Spec_ast.entry list;
  by_key : (string, Spec_ast.entry list) Hashtbl.t;
}

val last_component : string -> string

val build : Spec_ast.entry list -> t

(** The standard database: the embedded ECMA-262 corpus parsed once. *)
val standard : t Lazy.t

val lookup : t -> string -> Spec_ast.entry list

(** ["N sections, U with extractable rules, rule coverage C%"]: [U]
    counts the entries carrying exploitable boundary data (a parameter
    and a parsed rule), and [C] is the rule coverage over the whole
    document (paper §3.1: ~82%). *)
val stats : t -> string
