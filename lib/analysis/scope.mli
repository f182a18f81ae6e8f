(** Lexical scope resolution over {!Jsast.Ast} programs.

    Builds the scope tree the way an engine's early-error phase does:
    [var] declarations and function declarations hoist to the nearest
    enclosing function (or program) scope; [let]/[const] bind in their
    block, are visible throughout it, and references lexically before the
    declaration fall in the temporal dead zone; parameters, named
    function-expression names and catch parameters bind in their own
    function/catch scopes.

    The resolver produces the per-program binding table, the precise
    free-variable set (replacing the scope-insensitive approximation the
    test-data generator used to rely on), and the scope-level spec
    violations (lexical redeclaration, assignment to [const], TDZ use)
    that {!Early_errors} folds into its report. *)

type binding_kind =
  | Bvar    (** [var] declaration, hoisted to function scope *)
  | Blet
  | Bconst
  | Bfunc   (** function declaration or named function expression *)
  | Bparam
  | Bcatch  (** catch clause parameter *)

type scope_kind = Kprogram | Kfunction | Kblock | Kcatch | Kfor

type binding = {
  b_name : string;
  b_kind : binding_kind;
  b_scope : int;  (** id of the scope holding the binding *)
}

(** Spec violations detectable during resolution. *)
type issue =
  | Duplicate_decl of string  (** lexical redeclaration in the same scope *)
  | Const_assign of string    (** assignment or update targeting a const *)
  | Tdz_use of string
      (** reference lexically before the let/const declaration, with no
          intervening function boundary *)

type resolution = {
  res_scopes : int;           (** number of scopes in the program *)
  res_bindings : binding list;  (** declaration order *)
  res_free : string list;
      (** identifiers resolved by no scope and not builtin globals, in
          first-reference order *)
  res_free_all : string list;   (** as [res_free], builtins included *)
  res_issues : issue list;
}

val resolve : Jsast.Ast.program -> resolution

(** [free_variables p] = [(resolve p).res_free]: the names a harness must
    bind for the program to execute without an immediate ReferenceError. *)
val free_variables : Jsast.Ast.program -> string list

val issue_to_string : issue -> string
