(** Static quirk-reachability analysis (DESIGN.md §11).

    Computes, per program, a conservative over-approximation of the quirk
    checkpoints ([Quirkdef.t]) an execution can consult — the set
    [Value.quirk_on] records into a run's touched set. The abstract domain
    is a set of checkpoint ids with [top] (all checkpoints) as the value of
    dynamic constructs the analysis cannot bound ([eval], computed member
    access with the global object in reach).

    Soundness contract (asserted dynamically by [--audit]): for every
    execution of the program under any quirk configuration, fuel budget and
    mode compatible with the [strict] argument,
    [checkpoints p] ⊇ the execution's touched set.

    Consumers: [comfort analyze --quirks], which prints the set and the
    testbeds it distinguishes, and the [--audit] check, which asserts
    the contract on every Reference run. The execution path does not
    read it. *)

(** All checkpoint ids — the top element of the domain. *)
val top : Quirkdef.Set.t

val is_top : Quirkdef.Set.t -> bool

(** The join of every builtin-name-mapped checkpoint: what a computed
    member access with a dynamic key can reach without the global object.
    A strict subset of [top] (operator, optimizer, strict-mode and
    parse-stage checkpoints all need their own syntax). *)
val name_top : Quirkdef.Set.t

(** [checkpoints ?strict p] is the static touch-set of [p]. [strict]
    (default [false]) widens the result with the strict-mode-only
    checkpoints; it must be [true] whenever the program may execute under
    forced strict mode. A program-level ["use strict"] prologue or one in
    any function body widens regardless of the argument. *)
val checkpoints : ?strict:bool -> Jsast.Ast.program -> Quirkdef.Set.t

(** Parse-and-analyze convenience for diagnostics ([comfort analyze]);
    returns the empty set when [src] does not parse (a parse-failing case
    consults nothing at run time). *)
val checkpoints_src : ?strict:bool -> string -> Quirkdef.Set.t
