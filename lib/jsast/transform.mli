(** Deep rewriting over programs.

    [map_program] rebuilds a program bottom-up, applying [fe] to every
    expression and [fs] to every statement after their children have been
    rewritten. Node ids of untouched nodes are preserved, so coverage data
    and call-site ids stay valid across a rewrite that only replaces a
    subtree. *)

val map_program :
  ?fe:(Ast.expr -> Ast.expr) ->
  ?fs:(Ast.stmt -> Ast.stmt) ->
  Ast.program ->
  Ast.program

(** Replace the expression with node id [eid] by [replacement]. *)
val replace_expr : Ast.program -> eid:int -> replacement:Ast.expr -> Ast.program

(** Replace the initializer of the first declaration of variable [name]
    — the [var len = undefined] move of the paper's Figure 2. *)
val replace_var_init : Ast.program -> name:string -> init:Ast.expr -> Ast.program
