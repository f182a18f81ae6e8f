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

(** The common fuzzer interface shared by Comfort and all baselines. *)
type fuzzer = {
  fz_name : string;
  fz_batch : int -> Testcase.t list;
      (** produce at least [n] fresh test cases *)
  fz_raw : (int -> string list) option;
      (** raw generator output before screening/mutation, for the Fig. 9
          passing-rate metric; [None] when the batch is already raw *)
}

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
          executes (DESIGN.md §12); 0 under [Reference]. Statistics only:
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
    checksummed and marshalled as itself — campaign parameters,
    testbeds, fault plan, drawn cases, consumed count, discoveries,
    filter tree, timeline, screening counters, supervisor (quarantine +
    stats), this campaign's share of every {!Cutil.Counter} count (the
    source of {!result.cp_specialized} and {!result.cp_cow_clones}) and
    an early end (a fuzzer that ran dry, a testbed pool
    exhausted by quarantine). The case list subsumes an RNG cursor:
    every random draw happens before the first case executes, so resume
    replays the exact remaining cases (format notes in DESIGN.md §10). *)
module Checkpoint : sig
  type state

  (** Atomic save (write to [path ^ ".tmp"], then rename). *)
  val save : string -> state -> unit

  (** Never raises on a damaged file: a bad header, a truncated or
      bit-flipped frame is an [Error] naming the damage. *)
  val load : string -> (state, string) Stdlib.result

  (** Cases fully consumed when the checkpoint was saved. *)
  val consumed : state -> int

  (** Total cases the campaign drew. *)
  val total : state -> int

  (** One-line human summary, for the CLI. *)
  val describe : state -> string
end

(** Run a campaign. Testbeds vote within their own mode group, since
    strict and sloppy semantics legitimately differ.
    @param testbeds  defaults to {!default_testbeds}; pass
                     [Engines.Engine.all_testbeds] for the paper's full
                     102-testbed setup
    @param budget    number of test cases to execute
    @param reduce    reduce the first exposing case of each discovery
    @param screen    run the {!Analysis} static screen on every candidate
                     case (default [true]): dropped programs never reach
                     differential testing and replacements are drawn so
                     the budget is still spent in full; [false] is the
                     screening ablation
    @param strategy  the execution strategy (default
                     {!Jsinterp.Strategy.default}); reports are
                     byte-identical under both (DESIGN.md, "Execution
                     strategy")
    @param audit     when positive, every [audit]-th case (by submission
                     index, so the sample is deterministic) runs under both
                     strategies through {!Difftest.audit_case}, which
                     raises {!Difftest.Audit_mismatch} on any divergence.
                     Incompatible with [faults]
    @param faults    deterministic fault-injection plan applied to every
                     supervised testbed execution (chaos campaigns);
                     defaults to [COMFORT_FAULTS] from the environment.
                     A plan turns supervision on, under
                     {!Supervisor.default_policy}: injected faults are
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
                     configured. No effect when >= the drawn case count
    @param workers   when positive (default [COMFORT_WORKERS], else 0)
                     and {!Coordinator.available}, run every per-case
                     sweep in one of this many forked worker processes
                     instead of the in-process loop: a segfault, runaway
                     or hard-killed execution costs one worker, never the
                     campaign. Results are consumed in submission order,
                     so discoveries, the filter tree and the timeline are
                     byte-identical at any worker count (DESIGN.md §14).
                     Otherwise every case runs in-process, in order
    @param worker_limits watchdog/respawn budgets for the worker pool;
                     budget exhaustion aborts with a partial report
                     ({!result.cp_aborted}), mirroring testbed-pool
                     exhaustion *)
val run :
  ?testbeds:Engines.Engine.testbed list ->
  ?budget:int ->
  ?fuel:int ->
  ?reduce:bool ->
  ?screen:bool ->
  ?workers:int ->
  ?worker_limits:Coordinator.limits ->
  ?strategy:Jsinterp.Strategy.t ->
  ?audit:int ->
  ?faults:Supervisor.Faultplan.t ->
  ?checkpoint:string * int ->
  ?halt_after:int ->
  fuzzer ->
  result

(** Continue a checkpointed campaign to completion. The loaded state is
    taken over, not copied: it carries every campaign parameter except
    [workers] (orthogonal to the outcome), and the driver mutates it as
    it consumes cases, so load a fresh state for every resume. The final
    report is byte-identical to the uninterrupted run's, at any worker
    count on either side of the kill; resuming the final checkpoint of
    a finished or early-ended campaign runs nothing and reproduces its
    report. A worker-pool exhaustion is not stored: resuming after one
    retries the remaining cases.
    [checkpoint]/[halt_after] behave as in {!run}, so a resumed campaign
    can itself checkpoint and halt. *)
val resume :
  ?workers:int ->
  ?worker_limits:Coordinator.limits ->
  ?checkpoint:string * int ->
  ?halt_after:int ->
  Checkpoint.state ->
  result

(** Outcome of screening one candidate test case. *)
type screened =
  | S_kept of Testcase.t
  | S_repaired of Testcase.t  (** free variables bound by the repair step *)
  | S_dropped of string       (** drop reason *)

(** Apply the static-analysis screen to one test case. Syntactically
    invalid cases pass through untouched: they are deliberate
    parser-exercise inputs with differential signal of their own. *)
val screen_case : Testcase.t -> screened
