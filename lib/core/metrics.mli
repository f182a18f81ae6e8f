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
val measure : Campaign.fuzzer -> n:int -> quality

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
