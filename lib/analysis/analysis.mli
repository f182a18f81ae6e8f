(** Semantic static analysis over generated programs — the screening pass
    that sits between generation and differential execution.

    A multi-engine differential run is the expensive step of the pipeline;
    this pass rejects or repairs the programs that cannot possibly expose a
    conformance bug before any testbed executes them:

    - spec-invalid programs the reference parser happens to accept
      ({!Early_errors}): every conforming engine rejects them identically,
      so they carry no differential signal;
    - nondeterministic or observably-inert programs ({!Lint}): they poison
      or starve the majority vote;
    - programs with unbound identifiers ({!Scope}): they die on an
      immediate [ReferenceError] — but are repairable by synthesizing
      bindings, so they earn [Repair] rather than [Drop].

    Strict-only early errors never cause a [Drop] of sloppy code: under a
    strict testbed those programs make conforming front ends disagree with
    the quirky ones, which is exactly the signal the campaign wants. *)

module Scope = Scope
module Early_errors = Early_errors
module Lint = Lint

(** The screening verdict. [Repair]/[Drop] carry a machine-readable reason
    (e.g. ["unbound:a,b"], ["nondeterministic:Math.random"],
    ["no-observable-output"], or an early-error rule name). *)
type verdict = Keep | Repair of string | Drop of string

type diagnostics = {
  d_free : string list;
      (** identifiers needing a synthesized binding (builtins excluded) *)
  d_errors : Early_errors.error list;
      (** early errors under the program's own mode *)
  d_strict_only : Early_errors.error list;
      (** additional errors a strict testbed's front end would raise —
          reported for diagnosis, never grounds for dropping sloppy code *)
  d_lint : Lint.finding list;
}

val verdict_to_string : verdict -> string

(** [screen_verdict p] is the verdict {!screen} gives [p]'s source,
    without the strict-only early-error pass, which only diagnosis
    reads. *)
val screen_verdict : Jsast.Ast.program -> verdict

(** Parse and screen a source string, with full diagnostics; [Error] is
    a parser diagnostic. [strict] defaults to the program's own
    ["use strict"] prologue. *)
val screen : ?strict:bool -> string -> (verdict * diagnostics, string) result

(** [bind_free p] prepends [var n = 1] for every free variable of [p] —
    the repair for [Repair "unbound:..."] verdicts. *)
val bind_free : Jsast.Ast.program -> Jsast.Ast.program
