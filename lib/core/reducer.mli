(** Test-case reduction (paper §3.5).

    Iteratively removes code structures — statement deletion at every
    nesting depth, plus replacing compound statements by their bodies —
    keeping a step whenever the reduced program still triggers the same
    anomalous behaviour, until a fixpoint. *)

(** [reduce ~still_triggers src] shrinks [src] greedily while the predicate
    holds on each candidate. Returns [src] unchanged if it does not parse.
    [jobs] parallelises the per-candidate probes (chunked first-improvement:
    the accepted candidate is the sequentially-first one, so the result is
    identical at any job count). *)
val reduce : ?jobs:int -> still_triggers:(string -> bool) -> string -> string

(** Build the predicate from an observed deviation: the reduced program
    must keep the same behaviour class on the deviating testbed (vs the
    conforming reference) and keep firing the same ground-truth quirks.
    Both runs of a candidate go through one {!Engines.Engine.Exec} probe
    cache under [strategy] (default {!Jsinterp.Strategy.default}). *)
val still_triggers_deviation :
  ?strategy:Jsinterp.Strategy.t ->
  Engines.Engine.testbed ->
  Difftest.deviation ->
  string ->
  bool
