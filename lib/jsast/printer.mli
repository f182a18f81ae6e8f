(** JavaScript source emission.

    [program_to_string] produces source that the [jsparse] parser parses
    back to an equivalent AST (round-tripping is property-tested).
    Emission is conservative with parentheses: a child expression is
    parenthesised whenever its precedence is not strictly higher than the
    context requires. *)

val program_to_string : Ast.program -> string
