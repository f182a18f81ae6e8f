(** Execution coverage recorder (Istanbul substitute, paper §5.3.3).

    Tracks which statement nodes executed, which branch arms were taken and
    which functions were entered, keyed by the AST node ids assigned at
    construction time. Code evaluated through [eval] at run time does not
    count towards the test program's own coverage. *)

type t

val create : unit -> t

val record_stmt : t -> int -> unit
val record_branch : t -> int -> int -> unit
val record_func : t -> int -> unit

type summary = {
  stmt_covered : int;
  stmt_total : int;
  branch_covered : int;
  branch_total : int;
  func_covered : int;
  func_total : int;
}

(** Intersect the recorder with the program's own locations. *)
val summarize : t -> Jsast.Ast.program -> summary
