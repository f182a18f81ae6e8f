(** Testbed execution (paper §4.2): run a test case on one engine-version
    configuration in one mode. The paper's setup is 102 testbeds — 51
    configurations, each in normal and strict mode. *)

type mode = Normal | Strict

val mode_to_string : mode -> string

type testbed = { tb_config : Registry.config; tb_mode : mode }

val testbed_id : testbed -> string

(** All 102 testbeds. *)
val all_testbeds : testbed list

(** The newest version of each engine (default campaign target set). *)
val latest_testbeds : ?mode:mode -> unit -> testbed list

(** Execute a source program on a testbed. [frontend] reuses a pre-parsed
    front end (see {!Frontend}), skipping this run's own parse. [strategy]
    (default [Jsinterp.Strategy.default]) selects the execution path;
    results are bit-for-bit identical either way. *)
val run :
  ?fuel:int ->
  ?coverage:bool ->
  ?strategy:Jsinterp.Strategy.t ->
  ?frontend:Jsinterp.Run.frontend ->
  testbed ->
  string ->
  Jsinterp.Run.result

(** The standard-conforming engine with no quirks — the oracle used by the
    reducer and examples. Not to be confused with the [Reference]
    execution strategy, which can run any engine. *)
val run_reference :
  ?fuel:int ->
  ?strict:bool ->
  ?strategy:Jsinterp.Strategy.t ->
  string ->
  Jsinterp.Run.result

(** Can this configuration's front end express the program at all? Used to
    honour the paper's rule of only testing engines against programs within
    their supported ECMAScript edition (§2.2). *)
val supports : Registry.config -> string -> bool

(** Per-test-case front-end cache. Built once per source, it shares the
    {!supports} verdict per base front-end profile and one parse per
    distinct [(Registry.parse_key, mode)] group across a testbed sweep,
    cutting the front-end cost from 2–3 parses per testbed to one per
    group. A group whose options are unobservable on the source takes a
    permissive base parse instead, and the ES5 profile takes the
    standard base parse whenever that parse reached no construct an ES5
    flag gates — so a typical source costs one parse in all. Each
    distinct front end handed out carries a small id, which {!Exec}
    uses as its class key. A cache is mutable: the campaign builds one
    inside the worker call that owns the case. *)
module Frontend : sig
  type cache

  val cache : string -> cache

  (** The standard base front end of a source: a sloppy parse under the
      standard options with every parser-level quirk acceptance on, its
      sunk quirks, strict and edition sensitivity recorded. The source
      parses under {!Jsparse.Parser.default_options} exactly when this
      parse succeeds and sinks no quirk, and then to the same program. *)
  val base_parse : string -> Jsinterp.Run.frontend

  (** Did this permissive parse succeed without leaning on a quirk
      acceptance, that is, does the source parse under the profile's own
      options? *)
  val parses_clean : Jsinterp.Run.frontend -> bool

  (** Memoised {!Engine.supports}: same verdict, at most one parse per
      base front-end profile (plus one validity probe) per case. *)
  val supports : cache -> Registry.config -> bool

  (** The shared front end for this testbed's parse group, parsing on
      first use. Pass to [run ~frontend]. *)
  val frontend : cache -> testbed -> Jsinterp.Run.frontend
end

(** Per-test-case execution-sharing cache, extending {!Frontend} from
    shared parses to shared executions. [run] interprets once per
    behavioural equivalence class — testbeds keyed by (front end, fuel,
    quirks ∩ touched checkpoints) — and every other member inherits
    the representative's [Run.result], byte-identical to a direct sweep
    (soundness argument in DESIGN.md §8). The mode is one more input a
    run may consult: a strict testbed inherits a sloppy representative
    that reached no mode-dependent site ([Run.ex_mode_touched]), adding
    the checkpoints only the strict run consults ([Run.ex_shadow]); the
    [engines.mode_shared] counter counts these runs. The front end, not the parse
    group, is the key: testbeds of different parse groups that share one
    parsed program share executions, unless the representative parsed
    source at run time ([Run.ex_reparsed], the global [eval]), which
    depends on the parse options — such a representative serves only its
    own parse group. Classes are found by a bounded split-and-rerun
    fixpoint validated against each representative's own touched set.
    Only the [Fast] strategy shares: under [Reference] every run executes
    directly, which makes the cache the direct sweep too. Mutable,
    tied to one source string, like {!Frontend.cache}. *)
module Exec : sig
  type cache

  val cache : string -> cache

  (** {!cache}, with [fe] (a {!Frontend.base_parse} of the source) as
      its standard base front end: the sweep reuses the draw's parse
      and does not parse the source again. *)
  val seeded : string -> Jsinterp.Run.frontend -> cache

  val frontend_cache : cache -> Frontend.cache

  (** Memoised {!Engine.supports}, via the underlying front-end cache. *)
  val supports : cache -> Registry.config -> bool

  (** [(executed, shared)]: interpreter executions actually performed vs.
      runs answered by class inheritance. *)
  val stats : cache -> int * int

  (** Execute an arbitrary quirk profile on the cached source, sharing
      across its behavioural equivalence class — the generalisation of
      {!run} to profiles not backed by a registry config (the campaign's
      causal-attribution probes, which run a testbed's quirk set with one
      quirk removed). [pkey] must be the parse key of the {e effective}
      front end — callers removing a parser-level quirk must clear the
      corresponding flag — and profiles mapping to the same [pkey] must
      have identical effective options, as in {!Frontend.frontend_for}. *)
  val run_keyed :
    ?strategy:Jsinterp.Strategy.t ->
    cache ->
    pkey:Registry.parse_key ->
    quirks:Jsinterp.Quirk.Set.t ->
    parse_opts:Jsparse.Parser.options ->
    strict:bool ->
    fuel:int ->
    Jsinterp.Run.result

  (** Execute [tb] on the cached source, sharing across the testbed's
      equivalence class. Same contract as {!Engine.run} on that source. *)
  val run :
    ?fuel:int ->
    ?strategy:Jsinterp.Strategy.t ->
    cache ->
    testbed ->
    Jsinterp.Run.result

  (** The conforming reference engine through the same cache (same
      contract as {!Engine.run_reference} on the cached source). *)
  val run_reference :
    ?fuel:int ->
    ?strict:bool ->
    ?strategy:Jsinterp.Strategy.t ->
    cache ->
    Jsinterp.Run.result
end
