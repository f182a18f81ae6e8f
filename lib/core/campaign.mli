(** Fuzzing campaign driver: the paper's end-to-end testing loop.

    Feeds test cases from a fuzzer into differential testing across a set
    of testbeds, attributes deviations to ground-truth bugs via the quirks
    that causally fired on the deviating engine, de-duplicates repeats with
    the Fig. 6 filter tree, and records the discovery timeline plotted in
    Fig. 8.

    Campaigns run supervised (DESIGN.md §10): executions can be subjected
    to a deterministic fault-injection plan, persistently faulting
    testbeds are quarantined and the vote recomputed over the survivors,
    progress can be checkpointed and a killed campaign resumed, and a
    campaign that loses its fuzzer or its testbed pool finishes with an
    abort reason instead of dying. *)

(** The common fuzzer interface shared by Comfort and all baselines,
    built by {!make_fuzzer}: one stream of cases, pulled one at a time. *)
type fuzzer = private {
  fz_name : string;
  fz_seed : int;
      (** the seed it was built with: with [fz_name], what a checkpoint
          stores to have the fuzzer rebuilt on {!resume} *)
  fz_next : unit -> (Testcase.t * Jsinterp.Run.frontend option) option;
      (** the next case, with the front end its syntax check made;
          [None] once the fuzzer has run dry, and an exception when it
          dies. The contract:
          - each pull advances the fuzzer: pulling [n] cases from two
            fuzzers built alike yields the same [n] cases;
          - the front end is the {!Engines.Engine.Frontend.base_parse}
            of the case's own [tc_source] ({!Testcase.make_parsed}),
            never an AST from before printing;
          - it is [None] exactly when [tc_syntax_valid] is [false];
          - it is never stored: the campaign screens each case from it
            as soon as it is pulled, and an in-process sweep takes it as
            the case's standard base front end, so it dies with the
            case's sweep. It stays out of {!Testcase.t} (which the fork
            pool ships) and out of the driver's record. *)
  fz_batch : int -> Testcase.t list;
      (** the cases of the next [n] pulls (fewer if the fuzzer runs
          dry), without their parses *)
  fz_raw : (int -> string list) option;
      (** raw generator output before screening/mutation, for the Fig. 9
          passing-rate metric; [None] when the batch is already raw *)
}

(** A fuzzer around its pull; [fz_batch] is derived from it. A fuzzer
    must be a function of its name and seed: two built alike yield the
    same stream of cases. *)
val make_fuzzer :
  name:string ->
  seed:int ->
  raw:(int -> string list) option ->
  (unit -> (Testcase.t * Jsinterp.Run.frontend option) option) ->
  fuzzer

type discovery = {
  disc_engine : Engines.Registry.engine;
  disc_quirk : Jsinterp.Quirk.t;      (** the ground-truth bug *)
  disc_case : Testcase.t;             (** the exposing test case *)
  disc_reduced : string option;       (** §3.5 reduction, when requested *)
  disc_kind : Difftest.deviation_kind;
  disc_behavior : string;
  disc_at : int;                      (** cases run when it was found *)
  disc_version : string;              (** earliest affected engine version *)
  disc_mode : Engines.Engine.mode;
}

type result = {
  cp_fuzzer : string;
  cp_cases_run : int;
  cp_discoveries : discovery list;    (** unique (engine, bug) pairs *)
  cp_filtered_repeats : int;          (** suppressed by the Fig. 6 tree *)
  cp_unattributed : int;              (** deviations with no causal quirk *)
  cp_timeline : (int * int) list;     (** (cases run, cumulative bugs) *)
  cp_screened_out : int;              (** dropped by the static-analysis screen *)
  cp_screen_reasons : (string * int) list;  (** drop reason -> count, sorted *)
  cp_repaired : int;                  (** kept after free-variable repair *)
  cp_reach_seeded : int;  (** always 0; kept for the benchmark harness *)
  cp_specialized : int;
      (** slot compilations performed, one per (front end, mode) that
          executes (DESIGN.md §12) — a strict testbed that inherits a
          sloppy run (§8) compiles nothing; 0 under [Reference].
          Statistics only:
          discoveries and reports are identical either way *)
  cp_cow_clones : int;
      (** realm-template objects lazily journaled by the copy-on-write
          write barrier; 0 under [Reference]. Statistics only *)
  cp_ic_hits : int;  (** always 0; kept for the benchmark harness *)
  cp_skipped_cases : int;
      (** cases lost to worker failures: the campaign records them as
          failed-and-skipped instead of letting one poisoned case
          kill the campaign *)
  cp_faults : Supervisor.stats;       (** aggregate supervision counters *)
  cp_quarantined : (string * int) list;
      (** quarantined testbeds as (testbed id, case index that tripped
          the threshold), oldest first; the vote was recomputed over the
          survivors from that point on *)
  cp_aborted : string option;
      (** why the campaign ended early, if it did (fuzzer exhaustion,
          testbed pool exhausted by quarantine). The report still covers
          everything that ran; the CLI turns this into a non-zero exit. *)
}

(** Raised by a campaign run with [halt_after] once that many cases are
    consumed: the deterministic stand-in for killing the process, used by
    the checkpoint/resume tests and the CI kill-and-resume job.
    [halted_checkpoint] is the checkpoint written at the halt point, when
    a checkpoint sink was configured. *)
exception Halted of { halted_at : int; halted_checkpoint : string option }

(** Raised by a [workers > 0] campaign when the operator SIGINT/SIGTERMs
    the driver: the case in hand is finished, a final checkpoint is
    written (when a checkpoint sink is configured), the worker pool is
    torn down, and this surfaces with the resume path. The CLI converts
    it into exit code 130. *)
exception
  Interrupted of {
    int_signal : string;       (** ["SIGINT"] or ["SIGTERM"] *)
    int_at : int;              (** cases consumed before stopping *)
    int_checkpoint : string option;  (** where the final checkpoint went *)
  }

(** The Comfort fuzzer: LM program generation plus Algorithm 1 mutants.
    [with_datagen:false] keeps driver synthesis but strips all spec
    boundary values (the guidance ablation). *)
val comfort_fuzzer : ?seed:int -> ?with_datagen:bool -> unit -> fuzzer

(** Latest version of every engine, in both modes (20 testbeds). *)
val default_testbeds : unit -> Engines.Engine.testbed list

(** Campaign checkpoints: the driver's own state record, versioned,
    checksummed and marshalled as itself — campaign parameters (the
    fuzzer's name and seed, the budget), testbeds, fault plan, the
    gather's cursor (cases pulled and kept, screen tallies, the draw's
    early end), consumed count, discoveries, filter tree, timeline, supervisor
    (quarantine + stats), this campaign's share of every
    {!Cutil.Counter} count (the source of {!result.cp_specialized} and
    {!result.cp_cow_clones}). An early end (a fuzzer that ran dry, a
    testbed pool exhausted by quarantine) is the cursor's. No case is
    stored, so the size does not grow with the budget: {!resume} pulls
    the drawn prefix again from a rebuilt fuzzer and discards it (format
    notes in DESIGN.md §10). *)
module Checkpoint : sig
  type state

  (** Never raises on a damaged file: a bad header, a truncated or
      bit-flipped frame is an [Error] naming the damage. *)
  val load : string -> (state, string) Stdlib.result

  (** Cases fully consumed when the checkpoint was saved. *)
  val consumed : state -> int

  (** The campaign's budget. *)
  val total : state -> int

  (** The name ([fz_name]) and seed ([fz_seed]) of the fuzzer the
      campaign drew from: {!resume} needs a fresh fuzzer built alike. *)
  val fuzzer : state -> string

  val seed : state -> int

  (** One-line human summary, for the CLI. *)
  val describe : state -> string
end

(** Run a campaign. Testbeds vote within their own mode group, since
    strict and sloppy semantics legitimately differ.
    @param testbeds  defaults to {!default_testbeds}; pass
                     [Engines.Engine.all_testbeds] for the paper's full
                     102-testbed setup
    @param budget    number of test cases to execute. Cases are pulled,
                     screened, swept and consumed one at a time. Every
                     candidate case runs the {!Analysis} static screen
                     first: dropped programs never reach differential
                     testing, and replacements are pulled so the budget
                     is still spent in full; [3 * (budget - kept)]
                     drops in a row end the campaign as a fuzzer
                     exhaustion
    @param reduce    reduce the first exposing case of each discovery
    @param strategy  the execution strategy (default
                     {!Jsinterp.Strategy.default}); reports are
                     byte-identical under both (DESIGN.md, "Execution
                     strategy")
    @param faults    deterministic fault-injection plan applied to every
                     supervised testbed execution (chaos campaigns).
                     The library reads no environment for it: the CLI
                     resolves [COMFORT_FAULTS] and passes the plan. A
                     plan turns supervision on, under the policy of
                     {!Supervisor.execute}: injected faults are
                     retried, quarantined and counted in
                     {!result.cp_faults} — they can never surface as
                     deviations or discoveries. Without one the pipeline
                     is the unsupervised one
    @param checkpoint [(path, every)]: save the driver state to [path]
                     after every [every] consumed cases (atomically), and
                     once more when the campaign finishes
    @param halt_after deterministically halt (raising {!Halted}) once this
                     many cases are consumed — the kill-simulation hook;
                     a halt writes a final checkpoint first when a sink is
                     configured. No effect once the budget is consumed
                     or the draw has stopped
    @param workers   when positive (default 0) and {!Coordinator.available}, run every per-case
                     sweep in one of this many forked worker processes
                     instead of the in-process loop: a segfault, runaway
                     or hard-killed execution costs one worker, never the
                     campaign. The pool pulls cases from the fuzzer as
                     workers free up, a bounded window ahead of the
                     consumed ones. Results are consumed in submission order,
                     so discoveries, the filter tree and the timeline are
                     byte-identical at any worker count (DESIGN.md §14).
                     Otherwise every case runs in-process, in order
    @param worker_limits watchdog/respawn budgets for the worker pool;
                     budget exhaustion aborts with a partial report
                     ({!result.cp_aborted}), mirroring testbed-pool
                     exhaustion. Either exhaustion stops the draw where
                     it stands: the report's screen tallies are those
                     of the cases pulled up to the last consumed one *)
val run :
  ?testbeds:Engines.Engine.testbed list ->
  ?budget:int ->
  ?reduce:bool ->
  ?workers:int ->
  ?worker_limits:Coordinator.limits ->
  ?strategy:Jsinterp.Strategy.t ->
  ?faults:Supervisor.Faultplan.t ->
  ?checkpoint:string * int ->
  ?halt_after:int ->
  fuzzer ->
  result

(** Continue a checkpointed campaign to completion. [fuzzer] must be a
    fresh fuzzer built with the checkpoint's {!Checkpoint.fuzzer} name
    and {!Checkpoint.seed} (the CLI rebuilds it from its [--fuzzer]
    table): the campaign pulls as many cases as the checkpoint's cursor
    had pulled and discards them, then goes on pulling.
    @raise Invalid_argument when the fuzzer's name or seed differs.
    The loaded state is taken over, not copied: it carries every
    campaign parameter except [workers] (orthogonal to the outcome),
    and the driver mutates it as it consumes cases, so load a fresh
    state for every resume. The final report is byte-identical to the
    uninterrupted run's, at any worker count on either side of the
    kill; resuming the final checkpoint of a finished or early-ended
    campaign pulls nothing, runs nothing and reproduces its report. A
    worker-pool exhaustion is not stored: resuming after one retries
    the remaining cases.
    [checkpoint]/[halt_after] behave as in {!run}, so a resumed campaign
    can itself checkpoint and halt. *)
val resume :
  ?workers:int ->
  ?worker_limits:Coordinator.limits ->
  ?checkpoint:string * int ->
  ?halt_after:int ->
  Checkpoint.state ->
  fuzzer ->
  result

(** Outcome of screening one candidate test case. *)
type screened =
  | S_kept of Testcase.t
  | S_repaired of Testcase.t  (** free variables bound by the repair step *)
  | S_dropped of string       (** drop reason *)

(** Apply the static-analysis screen to one test case. Syntactically
    invalid cases pass through untouched: they are deliberate
    parser-exercise inputs with differential signal of their own. Parses
    the case's source once, and the repaired source of an [S_repaired]
    case once more; the campaign's gather screens the parse its fuzzer
    handed over instead of the first. *)
val screen_case : Testcase.t -> screened
