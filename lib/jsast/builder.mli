(** Smart constructors assigning fresh node ids.

    All AST producers (the parser, the baseline mutators, the test-data
    generator, the reducer) build nodes through this module so that every
    node carries a distinct id for coverage accounting. *)

(** Wrap a description with a fresh id. *)
val e : Ast.expr_desc -> Ast.expr

val s : Ast.stmt_desc -> Ast.stmt

(** {2 Expressions} *)

val null : Ast.expr
val bool : bool -> Ast.expr
val num : float -> Ast.expr
val int : int -> Ast.expr
val str : string -> Ast.expr
val regexp : string -> string -> Ast.expr
val ident : string -> Ast.expr
val this : unit -> Ast.expr
val undefined : unit -> Ast.expr
val array : Ast.expr list -> Ast.expr
val object_ : (Ast.propname * Ast.expr) list -> Ast.expr
val unary : Ast.unop -> Ast.expr -> Ast.expr
val binary : Ast.binop -> Ast.expr -> Ast.expr -> Ast.expr
val assign : Ast.expr -> Ast.expr -> Ast.expr
val assign_op : Ast.binop -> Ast.expr -> Ast.expr -> Ast.expr
val cond : Ast.expr -> Ast.expr -> Ast.expr -> Ast.expr
val call : Ast.expr -> Ast.expr list -> Ast.expr
val new_ : Ast.expr -> Ast.expr list -> Ast.expr
val field : Ast.expr -> string -> Ast.expr
val index : Ast.expr -> Ast.expr -> Ast.expr
val template : Ast.template_part list -> Ast.expr

(** {2 Statements} *)

val expr_stmt : Ast.expr -> Ast.stmt
val var : string -> Ast.expr -> Ast.stmt
val block : Ast.stmt list -> Ast.stmt
val throw : Ast.expr -> Ast.stmt

(** [print x] builds [print(x)] — the output primitive every testbed
    compares on. *)
val print : Ast.expr -> Ast.stmt

val program : ?strict:bool -> Ast.stmt list -> Ast.program

(** {2 Fresh-id deep copies}

    Used when grafting a subtree from one program into another, so the host
    keeps id uniqueness. *)

val refresh_expr : Ast.expr -> Ast.expr
val refresh_stmt : Ast.stmt -> Ast.stmt
