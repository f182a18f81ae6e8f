(** Supervised execution: fault injection, bounded retry, quarantine.

    The paper's campaigns drove 51 external engine builds that crash, hang
    and flake for infrastructure reasons; its Fig. 5 pipeline keeps the
    campaign alive through those faults and keeps them out of the bug
    statistics. This module supplies both halves for the in-process
    reproduction: a deterministic {!Faultplan} that injects simulated
    infrastructure faults into individual testbed executions (so CI can
    run chaos campaigns), and the supervision policy — watchdog, bounded
    retry with deterministic backoff, per-testbed quarantine — that the
    differential pipeline runs under.

    Concurrency contract: {!execute} (the worker half) reads only the
    immutable plan and policy, and every fault draw is a pure function of
    (seed, testbed id, case key, attempt) — chaos campaigns are therefore
    byte-identical at any worker count and across checkpoint resume. The
    mutable supervisor state {!t} (the driver half) is updated only by
    {!observe}, in case-submission order. A case is swept and judged,
    in-process or on a forked worker, against the {!quarantine_list} of
    its dispatch. *)

(** The fault taxonomy. Distinct by construction from the Figure-5
    outcome classes: an injected fault travels as {!Injected}, which the
    engine layer knows nothing about, so it can never surface as a
    [Sts_crash]/[Sts_timeout] engine signature or a deviation. *)
type fault_kind =
  | F_crash          (** simulated engine-process crash *)
  | F_hang           (** simulated hang; killed by the watchdog *)
  | F_kill           (** a real worker-process hard-kill: under
                         [Coordinator] the driver SIGKILLs the worker
                         mid-case; in-process it degrades to a simulated
                         crash, with identical reports either way *)
  | F_flaky          (** transient failure that clears after N attempts *)
  | F_slow of int    (** slow start of the given latency; beyond the
                         watchdog budget it is killed like a hang *)
  | F_exn of string  (** a real exception escaped the engine harness *)

(** The carrier for injected faults (exposed for tests and for harnesses
    that want to inject faults of their own through {!execute}). *)
exception Injected of fault_kind

(** A seeded, deterministic fault-injection plan. *)
module Faultplan : sig
  type t

  (** Parse a spec such as
      ["seed=9;targets=V8|Hermes;crash=0.1;hang=0.05;flaky=0.3;flaky_tries=2;slow=0.2"].
      Keys: [seed], [crash], [hang], [flaky], [flaky_tries], [slow],
      [slow_max], [worker_kill], [targets] ([|]-separated
      case-insensitive testbed-id substrings; absent = every testbed).
      Probabilities are per attempt (per execution for [flaky]).
      [worker_kill] picks executions whose whole worker process the
      coordinator hard-kills (see {!fault_kind}). Unknown keys are
      errors. *)
  val of_spec : string -> (t, string) result

  (** The COMFORT_FAULTS environment variable, parsed; [None] when unset
      or empty. The CLI is its one caller: a library campaign takes its
      plan as an argument. @raise Invalid_argument on a malformed spec —
      silently fuzzing without faults would defeat a chaos job. *)
  val from_env : unit -> t option

  (** Does the plan apply to this testbed at all? *)
  val targets : t -> string -> bool

  (** The fault injected into one attempt, or [None]. Pure: depends only
      on (plan, testbed id, case key, attempt). Flakes are drawn per
      execution and persist for [flaky_tries] attempts; crashes, hangs
      and slow starts re-roll on every retry. *)
  val draw :
    t -> testbed_id:string -> case_key:int -> attempt:int -> fault_kind option
end

(** What a successful supervised execution absorbed on the way. *)
type exec_meta = {
  em_retries : int;  (** failed attempts before success *)
  em_backoff : int;  (** total simulated backoff units *)
  em_slow : int;     (** slow starts absorbed within the watchdog budget *)
}

(** [exec_meta] of an execution that succeeded first try, untouched. *)
val ok_meta : exec_meta

(** Why an execution was given up on. *)
type fault_report = {
  fr_kind : fault_kind;        (** the fault that exhausted the budget *)
  fr_attempts : int;           (** attempts made (>= 1) *)
  fr_trail : fault_kind list;  (** fault per failed attempt, oldest first *)
  fr_backoff : int;            (** total simulated backoff units *)
}

type 'a outcome =
  | Done of 'a * exec_meta
  | Faulted of fault_report
  | Skipped  (** quarantined before execution *)

(** Run one testbed execution under the plan and the supervision
    policy: consult the fault plan before each attempt, retry faulted
    attempts (injected or real escaped exceptions) with deterministic
    backoff, give up after two retries. Attempt [k] is charged
    [10 * 2^(k-1)] simulated backoff units (fuel is the repo's
    wall-clock stand-in, so backoff is accounted in {!stats}, not
    slept). A slow start beyond the 100-unit watchdog budget is
    indistinguishable from a hang and killed. With no plan the happy
    path is the bare thunk plus one exception handler. Worker-safe:
    touches no shared state. *)
val execute :
  ?plan:Faultplan.t ->
  testbed_id:string ->
  case_key:int ->
  (unit -> 'a) ->
  'a outcome

(** {2 Worker-process kill hook}

    Set only inside [Coordinator]'s forked children, where a drawn
    [F_kill] must escalate to a real process death. [arm_kill_hook]
    is called per dispatch: the first [absorb] kill draws (in
    deterministic sweep order) fail their attempt in-process exactly as
    with no hook, and the next invokes [die], which must not return
    (the coordinator SIGKILLs the worker). With the hook unarmed — the
    driver, in-process campaigns — [F_kill] always
    degrades to an in-process attempt failure, which is what makes
    reports byte-identical at any worker count. *)

val arm_kill_hook : absorb:int -> die:(unit -> unit) -> unit
val disarm_kill_hook : unit -> unit

(** Aggregate supervision counters for a campaign report. *)
type stats = {
  st_injected : int;  (** faulted attempts, injected or real *)
  st_retried : int;   (** executions that retried and then succeeded *)
  st_faulted : int;   (** executions that exhausted the retry budget *)
  st_skipped : int;   (** executions skipped because of quarantine *)
  st_slow : int;      (** slow starts absorbed *)
  st_backoff : int;   (** total simulated backoff units *)
}

val zero_stats : stats

(** Driver-side supervisor state: consecutive-fault tracking, the
    quarantine set, aggregate stats. Mutated only by {!observe}, in
    place. *)
type t

val create : unit -> t
val stats : t -> stats

(** Quarantined testbeds as [(testbed id, case key that tripped the
    threshold)], oldest first. *)
val quarantine_list : t -> (string * int) list

(** Membership in the quarantine set. *)
val quarantined : t -> string -> bool

(** One testbed's supervised outcome within one case. *)
type observation =
  | Ob_ok of exec_meta
  | Ob_faulted of fault_report
  | Ob_skipped

(** Fold one case's per-testbed observations into the supervisor, in
    case-submission order: reset or bump consecutive-fault counters,
    quarantine testbeds after three consecutive faulted cases,
    accumulate stats. Driver-only. *)
val observe : t -> case_key:int -> (string * observation) list -> unit

