(** Test-case quality metrics (paper §5.3.3, Figure 9). *)

type quality = {
  q_fuzzer : string;
  q_samples : int;
  q_validity : float;    (** syntax passing rate over raw generator output *)
  q_stmt_cov : float;    (** aggregate statement coverage of valid cases *)
  q_branch_cov : float;
  q_func_cov : float;
}

(** Measure one fuzzer over [n] cases; coverage runs each syntactically
    valid case on the reference engine with instrumentation. *)
val measure : ?fuel:int -> Campaign.fuzzer -> n:int -> quality

(** How the static-analysis screen judges a fuzzer's output. *)
type screening = {
  sc_fuzzer : string;
  sc_samples : int;
  sc_kept : int;       (** passed the screen untouched *)
  sc_repaired : int;   (** kept after free-variable repair *)
  sc_dropped : int;
  sc_reasons : (string * int) list;  (** drop reason -> count, sorted *)
}

(** Screen [n] cases from the fuzzer (no replacement draws: fractions are
    per emitted case). *)
val screen_stats : Campaign.fuzzer -> n:int -> screening

(** Share of valid generated cases that raise a runtime exception (the
    paper reports ~18% for Comfort). *)
val runtime_exception_rate : Campaign.fuzzer -> n:int -> float

(** One row of the campaign pipeline profile. *)
type stage_row = { st_name : string; st_ns : int; st_bytes : int }

(** The whole-pipeline profile of one campaign: the disjoint pipeline
    stages (generate, screen, sweep, vote, attr, reduce, fold) that
    partition the wall clock, plus the interpreter substages (parse,
    compile, realm, exec) that nest inside them. *)
type profile = {
  pr_wall_ns : int;              (** measured campaign wall clock *)
  pr_stages : stage_row list;    (** pipeline layer, campaign order *)
  pr_substages : stage_row list; (** interpreter layer (nested, not added) *)
  pr_accounted_ns : int;         (** sum of the pipeline layer *)
  pr_unaccounted_pct : float;    (** residual as a percentage of wall *)
}

(** Fold the [Jsinterp.Run.Stage] counters against a measured wall clock.
    Callers must have set [Run.Stage.enabled], [reset] the counters at
    the start of the timed region, and measured [wall_ns] around exactly
    that region. *)
val profile : wall_ns:int -> profile

(** Render a profile as the CLI's human-readable table. *)
val profile_to_string : profile -> string

(** How much coverage a supervised campaign retained in the face of
    faults (DESIGN.md §10): graceful degradation, quantified. *)
type availability = {
  av_testbeds : int;         (** testbeds the campaign started with *)
  av_quarantined : int;      (** dropped by quarantine along the way *)
  av_live : int;             (** still voting when the campaign ended *)
  av_cases : int;            (** cases consumed *)
  av_skipped_cases : int;    (** whole cases lost to worker failures *)
  av_lost_executions : int;  (** per-testbed executions faulted or skipped *)
  av_ratio : float;          (** live / started (1.0 when nothing faulted) *)
}

(** Summarise a campaign's degradation. [testbeds] is the size of the
    sweep the campaign was launched with (the result only records the
    losses). *)
val availability : testbeds:int -> Campaign.result -> availability
