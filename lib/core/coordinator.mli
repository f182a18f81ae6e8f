(** Fork-based process-isolated worker pool for campaigns.

    The paper's campaigns drove 51 external engine builds that segfault,
    hang and leak for infrastructure reasons; PR 5's supervisor
    reproduced the {e policy} half (fault injection, retry, quarantine,
    checkpoint/resume) but every execution still ran in the driver's
    address space. This module supplies the {e mechanism} half: the
    driver [fork]s N workers, ships case tasks over pipes ({!Ipc}
    frames), and folds replies back in submission order — the same
    in-order consume contract as the campaign's in-process loop — so
    campaign reports are byte-identical at any worker count. A worker that
    segfaults, is hard-killed by a [worker_kill] fault draw, wedges in
    an un-interruptible loop, or dies mid-frame costs a re-dispatch,
    never the campaign.

    Robustness layers (DESIGN.md §14):
    - {b watchdog}: each worker arms [Unix.setitimer ITIMER_REAL] per
      task and self-exits on SIGALRM; the driver's deadline poll
      SIGKILLs any worker whose oldest task has been the oldest for
      twice that budget, so even an un-interruptible hang is reaped.
    - {b pipelining}: each worker holds up to two tasks, the one it
      executes and the next, waiting in its pipe; each task sends one
      reply frame. A worker runs its tasks in FIFO order, so a death
      (crash, hang or [worker_kill]) is charged to the oldest in-flight
      task alone, and the task queued behind it is re-dispatched free
      of charge with its absorb count unchanged.
    - {b bounded recovery}: a task survives at most [li_task_deaths]
      unexpected worker deaths before it is failed-and-skipped (the
      driver's existing poisoned-work lane); the pool survives at most
      [li_respawn_budget] respawns after unexpected deaths — with
      exponential backoff — before {!Exhausted} aborts the campaign
      with a partial report. Deliberate [worker_kill] deaths respawn
      without charging the budget: they are self-bounding (each
      increments the task's absorb count, which converges), so injected
      chaos can never exhaust the allowance that guards against real
      death storms.

    Determinism: tasks must be pure (a function of the dispatched
    payload), which campaign sweeps are; replies are consumed strictly
    in submission order; deliberate [worker_kill] deaths re-dispatch
    with an incremented absorb count (see [Supervisor.arm_kill_hook]) so
    the surviving execution is exactly the in-process one; and each
    completed reply carries the task's delta of every {!Cutil.Counter}
    count, folded when the reply is consumed, so statistics also match
    in-process runs exactly. *)

(** Pool limits. *)
type limits = {
  li_watchdog_s : float;
      (** per-dispatch wall-clock budget, seconds. The worker self-exits
          at this age; the driver SIGKILLs at [2x + 0.5s] as a backstop. *)
  li_task_deaths : int;
      (** unexpected worker deaths (crash or watchdog reap) a single
          task survives before it is failed-and-skipped *)
  li_respawn_budget : int;
      (** worker respawns after {e unexpected} deaths (crashes, watchdog
          reaps) before {!Exhausted}; deliberate [worker_kill] respawns
          are not charged *)
  li_backoff_ms : int;
      (** respawn backoff base; consecutive deaths double it (capped) *)
}

exception Exhausted of string
(** The respawn budget ran out: workers are dying faster than the pool
    may replace them. The campaign driver converts this into an aborted
    partial report with a non-zero exit, mirroring PR 5's
    pool-exhaustion semantics. *)

type ('a, 'b) t
(** A pool dispatching ['a] tasks and collecting ['b] replies. *)

val available : unit -> bool
(** Can this process fork workers at all? False on non-Unix systems,
    and when COMFORT_NO_FORK is set non-empty (the CI escape hatch);
    callers degrade to the in-process loop. *)

val create :
  workers:int -> ?limits:limits -> worker:('a -> 'b) -> unit -> ('a, 'b) t
(** Fork [workers] children, each looping over dispatched tasks with
    [worker]. Children inherit the caller's state copy-on-write, so
    force shared lazy state before creating the pool. [worker] runs in
    the child; exceptions it raises are shipped back as strings and
    surface through [run_ordered]'s [on_task_fail]. [limits] defaults
    to [{ li_watchdog_s = 30.0; li_task_deaths = 2;
    li_respawn_budget = 32; li_backoff_ms = 25 }]. *)

val with_pool :
  workers:int ->
  ?limits:limits ->
  worker:('a -> 'b) ->
  (('a, 'b) t -> 'c) ->
  'c
(** [create]/[shutdown] bracket; the pool is torn down on any exit. *)

val run_ordered :
  ('a, 'b) t ->
  ?on_task_fail:(int -> 'a -> string -> 'b) ->
  ?stop:(unit -> bool) ->
  ?at_dispatch:('a -> 'a) ->
  'a Seq.t ->
  consume:(int -> 'a -> 'b -> unit) ->
  unit
(** Dispatch every task of the sequence and call [consume i task reply]
    strictly in submission order from the calling thread. Tasks are
    pulled one at a time, only when a worker has room for one, and at
    most a window of [64 * workers] past the consume cursor, so the
    sequence may be an unbounded stream produced as the run goes: the
    window bounds how far the pull reads ahead. [at_dispatch] maps a
    task to the payload a worker receives, each time it is dispatched
    (re-dispatches included), so a payload can carry driver state as of
    its dispatch; [consume] and [on_task_fail] get the pulled task.
    [on_task_fail i task msg] supplies the reply for a task whose worker
    raised, or that exceeded [li_task_deaths] (absent: such a task
    raises [Failure msg]). [stop], polled between consumes and before
    each new dispatch, ends the run early, discarding in-flight work.
    May raise {!Exhausted}. A pool outlives its runs; a wedged pool is
    recovered by {!shutdown}. *)

(** {2 Process-wide robustness telemetry}

    Monotone counts over every pool in this process, driver-mutated
    only; they are the [coordinator.*] entries of {!Cutil.Counter}. The
    CLI prints the deltas of a run; tests use them to assert that real
    process deaths (not just simulated faults) occurred. *)

val stat_respawns : unit -> int
(** Workers forked to replace a dead one (any cause). *)

val stat_kills : unit -> int
(** Deliberate [worker_kill] hard-kills performed. *)

val stat_hangs : unit -> int
(** Workers reaped by the driver's watchdog deadline. *)
