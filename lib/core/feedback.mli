(** Feedback-driven mutation of bug-exposing test cases — the extension the
    paper sketches as future work (§5.5, in the spirit of LangFuzz).

    A wrapped fuzzer maintains a bank of test cases that exposed deviations
    and mixes structure-preserving mutants of banked cases into each batch,
    probing the neighbourhood of every bug seen so far. *)

type t

val create : ?seed:int -> ?mix:float -> Campaign.fuzzer -> t

(** Bank a test case that exposed a deviation. *)
val record : t -> Testcase.t -> unit

val bank_size : t -> int

(** One structure-preserving mutant of a banked case, if any are banked. *)
val mutate_banked : t -> string option

(** The wrapped fuzzer; named ["<base>+feedback"]. *)
val fuzzer : t -> Campaign.fuzzer

(** A complete feedback campaign: [rounds] campaigns of
    [budget_per_round] cases, banking each round's exposing cases before
    the next; results are merged with (engine, bug) dedup. [strategy] is
    forwarded to {!Campaign.run}. *)
val run_rounds :
  ?testbeds:Engines.Engine.testbed list ->
  ?rounds:int ->
  ?budget_per_round:int ->
  ?fuel:int ->
  ?jobs:int ->
  ?strategy:Jsinterp.Strategy.t ->
  t ->
  Campaign.result
