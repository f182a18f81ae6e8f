(** Generic traversals and static queries over programs: the analyses
    shared by the test-data generator (call-site extraction, the def-use
    association of the paper's Algorithm 1 line 8), the coverage
    instrumentation (enumerating coverable locations) and the reducer. *)

val iter_program :
  ?fe:(Ast.expr -> unit) -> ?fs:(Ast.stmt -> unit) -> Ast.program -> unit

(** The [var]/function-declaration hoisting traversal of one function (or
    program) body: calls [on_var] on each hoisted [var] name and [on_func]
    on each function declaration (as [(sid, func)]), stopping at nested
    function boundaries. Shared by the interpreter's environment set-up
    and [Analysis.Scope], so binding structure cannot drift between the
    engine and the static analyses. *)
val hoist_stmt :
  on_var:(string -> unit) ->
  on_func:(int * Ast.func -> unit) ->
  Ast.stmt ->
  unit

(** {2 Call sites} *)

(** A call site interesting to the test-data generator: [x.substr(a)]
    yields callee ["substr"] with [cs_receiver = Some "x"];
    [new Uint32Array(n)] yields ["Uint32Array"]. *)
type call_site = {
  cs_callee : string;           (** last path component *)
  cs_path : string list;        (** full dotted path *)
  cs_receiver : string option;  (** receiver identifier for method calls *)
  cs_args : Ast.expr list;
  cs_is_new : bool;
  cs_expr_id : int;
}

(** The dotted-name path of a callee expression, if it is one. *)
val callee_path : Ast.expr -> string list option

val call_sites : Ast.program -> call_site list

(** {2 Name analyses} *)

(** Names declared anywhere ([var]/[let]/[const], function names, loop
    binders). *)
val declared_names : Ast.program -> string list

(** Global names every engine realm provides. Free-variable discovery is
    scope-aware and lives in [Analysis.Scope]. *)
val builtin_globals : string list
