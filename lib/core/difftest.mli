(** Differential testing with majority voting (paper §3.4, Figure 5).

    A test case runs on every applicable testbed; engines whose front end
    does not support the program's ECMAScript edition are excluded (§2.2).
    Each run is summarised to a behaviour signature, the majority signature
    is taken as ground truth, and minority testbeds are reported as
    deviations. Crashes and timeouts are flagged regardless of the vote. *)

type signature =
  | Sig_parse_fail
  | Sig_normal of string              (** printed output *)
  | Sig_exception of string * string  (** error name, output before throw *)
  | Sig_crash
  | Sig_timeout

val signature_to_string : signature -> string

(** The Figure-5 outcome classes a deviation can take. *)
type deviation_kind = Dev_parse | Dev_output | Dev_exception | Dev_crash | Dev_timeout

val deviation_kind_to_string : deviation_kind -> string

type deviation = {
  d_testbed : Engines.Engine.testbed;
  d_kind : deviation_kind;
  d_expected : string;   (** majority signature, rendered *)
  d_actual : string;
  d_behavior : string;   (** leaf label for the Fig. 6 filter tree *)
  d_fired : Jsinterp.Quirk.Set.t;
      (** ground-truth quirks that fired on the deviating run *)
}

type case_report = {
  cr_case : Testcase.t;
  cr_deviations : deviation list;
  cr_all_parse_failed : bool;  (** consistent parse error — case ignored *)
  cr_all_timeout : bool;       (** likely an infinite loop — case ignored *)
  cr_tested : int;             (** testbeds that actually ran the case *)
  cr_observed : (string * Supervisor.observation) list;
      (** a supervised sweep's outcome per testbed id, in sweep order, for
          the campaign's driver to {!Supervisor.observe}. Testbeds that
          exhausted their retry budget (infrastructure faults, Fig. 5's
          harness-failure lane) or were quarantined are excluded from the
          vote and never reported as deviations. [[]] when unsupervised. *)
}

(** Classify one engine run. *)
val signature_of_result : Jsinterp.Run.result -> signature

val behavior_label : signature -> signature -> string
val kind_of : signature -> signature -> deviation_kind

(** The campaign's per-testbed execution budget (fuel units standing in
    for wall-clock) — the single constant behind [run_case],
    [Campaign.run] and [Feedback.run_rounds]. Deliberately far below
    [Run.default_fuel]: deep enough for every seeded quirk trigger while
    keeping the 2t rule's timeout floor meaningful across a 102-testbed
    sweep. *)
val campaign_fuel : int

(** The raw material of one differential test: every applicable
    testbed's execution outcome, before any vote. Produced by
    {!sweep_case}, turned into a {!case_report} by {!judge}; both run
    wherever the case runs, in-process or on a forked campaign worker.
    Fault draws depend only on (plan, testbed, case key) and quarantine
    only on the roster the sweep is given, so the report is a pure
    function of the case, the plan and the roster (DESIGN.md §10). *)
type sweep = {
  sw_case : Testcase.t;
  sw_supervised : bool;  (** swept under a plan or a roster *)
  sw_execs :
    (Engines.Engine.testbed * Jsinterp.Run.result Supervisor.outcome) list;
}

(** Execute the case on every applicable testbed. Under a [plan] or a
    [roster] each execution is supervised: a testbed of the [roster]
    (a {!Supervisor.quarantine_list}) is {!Supervisor.Skipped}, and the
    others run under {!Supervisor.execute}. With neither the
    per-testbed execution is the bare engine run.
    [strategy] (default {!Jsinterp.Strategy.default}) selects the
    execution path; the sweep is byte-identical either way.
    [cache] shares one per-case {!Engines.Engine.Exec} cache across this
    case's several sweeps (the campaign sweeps each mode group
    separately), so the base parses and the executions shared within a
    mode group happen once per case; it must have been built for [tc]'s source.
    Classes are keyed by mode, so no execution is shared across groups —
    the report is byte-identical with or without it. *)
val sweep_case :
  ?fuel:int ->
  ?strategy:Jsinterp.Strategy.t ->
  ?plan:Supervisor.Faultplan.t ->
  ?roster:(string * int) list ->
  ?case_key:int ->
  ?cache:Engines.Engine.Exec.cache ->
  Engines.Engine.testbed list ->
  Testcase.t ->
  sweep

(** Vote over the testbeds that ran: faulted and skipped ones leave the
    vote, and a supervised sweep reports every testbed's
    {!Supervisor.observation} in [cr_observed]. Before the vote, the
    §3.4 2t rule reclassifies as a timeout a run that terminated
    normally but burned more than twice the slowest {e other} run (floor
    20k fuel). Exclusion of "self" from the comparison pool is by
    position, never by fuel value, so two equally-slow engines cannot
    hide each other. Pure: the supervisor is the caller's to update. *)
val judge : sweep -> case_report

(** Run one test case across the given testbeds and vote —
    [judge (sweep_case ...)]. Under the [Fast] strategy the sweep
    collapses into behavioural equivalence classes via
    {!Engines.Engine.Exec}, executing once per class instead of once per
    testbed; the report is byte-identical under [Reference] (DESIGN.md,
    "Execution strategy"). [plan]/[roster] enable supervised
    execution (DESIGN.md §10); with both absent the report is
    exactly the pre-supervision one. [cache] is passed through to
    {!sweep_case}. *)
val run_case :
  ?fuel:int ->
  ?strategy:Jsinterp.Strategy.t ->
  ?plan:Supervisor.Faultplan.t ->
  ?roster:(string * int) list ->
  ?case_key:int ->
  ?cache:Engines.Engine.Exec.cache ->
  Engines.Engine.testbed list ->
  Testcase.t ->
  case_report
