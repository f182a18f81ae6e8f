(** Feedback-driven mutation of bug-exposing test cases — the extension the
    paper sketches as future work (§5.5, in the spirit of LangFuzz).

    A wrapped fuzzer maintains a bank of test cases that exposed deviations
    and mixes structure-preserving mutants of banked cases into its
    stream, probing the neighbourhood of every bug seen so far. *)

type t

val create : ?seed:int -> Campaign.fuzzer -> t

(** Bank a test case that exposed a deviation. *)
val record : t -> Testcase.t -> unit

val bank_size : t -> int

(** The wrapped fuzzer; named ["<base>+feedback"]. While the bank is
    non-empty, its [k]-th pull is a structure-preserving mutant of a
    banked case when [k mod 10 < 3]; every other pull is the base
    fuzzer's. *)
val fuzzer : t -> Campaign.fuzzer

(** A complete feedback campaign: [rounds] campaigns of
    [budget_per_round] cases, banking each round's exposing cases before
    the next; results are merged with (engine, bug) dedup. [strategy] is
    forwarded to {!Campaign.run}. *)
val run_rounds :
  ?testbeds:Engines.Engine.testbed list ->
  ?rounds:int ->
  ?budget_per_round:int ->
  ?strategy:Jsinterp.Strategy.t ->
  t ->
  Campaign.result
