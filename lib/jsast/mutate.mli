(** Generic AST mutation operators.

    Used by the mutation-based baseline fuzzers (the Fuzzilli/DIE/Montage
    miniatures) and by the feedback extension that mutates bug-exposing
    test cases (paper §5.5). All operators preserve syntactic validity by
    construction — they rewrite the AST and print it. *)

(** Replace one random literal. With [preserve_type] the replacement keeps
    the literal's type (DIE-style aspect preservation), mostly with plain
    random values and occasionally an "interesting" constant. *)
val mutate_literal :
  ?preserve_type:bool -> Cutil.Rng.t -> Ast.program -> Ast.program

(** Swap one binary operator for another in the same family. *)
val mutate_operator : Cutil.Rng.t -> Ast.program -> Ast.program

(** Graft one top-level statement of [donor] into [host] at a random
    position (LangFuzz-style splicing); node ids are refreshed. *)
val splice : Cutil.Rng.t -> host:Ast.program -> donor:Ast.program -> Ast.program

(** Delete one random top-level statement (never the last one). *)
val drop_statement : Cutil.Rng.t -> Ast.program -> Ast.program

val to_src : Ast.program -> string
