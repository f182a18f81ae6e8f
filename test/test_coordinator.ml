(* Process-isolated campaign workers (Coordinator, DESIGN.md §14).

   Two layers of properties:

   - pool mechanics, exercised with toy workers: replies are consumed in
     submission order; a worker that crashes mid-task is respawned and
     the task re-dispatched transparently; a wedged worker is reaped by
     the wall-clock watchdog within its budget and the poisoned task
     lands in the failure lane instead of stalling the run; a worker
     exception travels back as a string; the respawn budget bounds how
     long the pool keeps reviving a dying fleet ({!Exhausted});

   - the determinism contract, exercised with real campaigns: under a
     [worker_kill] fault plan that hard-SIGKILLs real worker processes,
     the campaign report is identical at workers 0/1/2/4 (discoveries,
     timeline, fault statistics, quarantine, folded interpreter
     counters); a campaign halted at a checkpoint under one worker
     count resumes under another to the uninterrupted result; budget
     exhaustion degrades to an aborted partial report, mirroring the
     supervisor's pool-exhaustion semantics; and with fork disabled the
     same [~workers] request silently degrades to the in-process
     executor with an unchanged report. *)

module Campaign = Comfort.Campaign
module Coordinator = Comfort.Coordinator
module Faultplan = Comfort.Supervisor.Faultplan

let () = Unix.putenv "COMFORT_FAULTS" ""

(* Pool tests fork; on a host without fork they can only be skipped.
   (CI runs them on Linux unconditionally.) *)
let requires_fork () =
  if not (Coordinator.available ()) then
    Alcotest.skip ()

(* --- pool mechanics --- *)

let pool_runs_in_order () =
  requires_fork ();
  Coordinator.with_pool ~workers:3
    ~worker:(fun x -> x * x)
    (fun pool ->
      let seen = ref [] in
      Coordinator.run_ordered pool (List.init 24 Fun.id)
        ~consume:(fun i x y ->
          Alcotest.(check int) "task order" i x;
          Alcotest.(check int) "reply" (x * x) y;
          seen := i :: !seen);
      Alcotest.(check int) "all consumed" 24 (List.length !seen);
      Alcotest.(check bool) "in submission order" true
        (!seen = List.rev (List.init 24 Fun.id)))

let crashed_worker_respawned_task_redispatched () =
  requires_fork ();
  (* task 5 kills its worker once — flagged through the filesystem so
     the retry (in a fresh process) sees it — then succeeds; the run
     must complete with every reply intact and one respawn charged *)
  let flag = Filename.temp_file "comfort-coord" ".flag" in
  Sys.remove flag;
  let r0 = Coordinator.stat_respawns () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove flag with Sys_error _ -> ())
    (fun () ->
      Coordinator.with_pool ~workers:2
        ~worker:(fun x ->
          if x = 5 && not (Sys.file_exists flag) then begin
            let oc = open_out flag in
            close_out oc;
            Unix._exit 9
          end;
          x + 1)
        (fun pool ->
          let n = ref 0 in
          Coordinator.run_ordered pool (List.init 10 Fun.id)
            ~consume:(fun i _ y ->
              Alcotest.(check int) "reply survives the crash" (i + 1) y;
              incr n);
          Alcotest.(check int) "all consumed" 10 !n));
  Alcotest.(check bool) "the death cost at least one respawn" true
    (Coordinator.stat_respawns () - r0 >= 1)

let wedged_worker_reaped_within_budget () =
  requires_fork ();
  (* task 3 spins forever in an allocation-free loop (SIGALRM still
     interrupts it; the driver deadline would catch even a loop that
     blocked signals). With a 0.5s watchdog and one tolerated death the
     whole 6-task run must finish in seconds, with task 3 — and only
     task 3 — in the failure lane. *)
  let limits =
    {
      Coordinator.default_limits with
      li_watchdog_s = 0.5;
      li_task_deaths = 1;
      li_backoff_ms = 1;
    }
  in
  let h0 = Coordinator.stat_hangs () in
  let t0 = Unix.gettimeofday () in
  Coordinator.with_pool ~workers:2 ~limits
    ~worker:(fun x ->
      if x = 3 then (
        while true do
          ignore (Sys.opaque_identity 1)
        done;
        assert false)
      else x)
    (fun pool ->
      let failed = ref [] in
      Coordinator.run_ordered pool (List.init 6 Fun.id)
        ~on_task_fail:(fun i _ _ ->
          failed := i :: !failed;
          -1)
        ~consume:(fun i _ y ->
          if i = 3 then Alcotest.(check int) "poisoned task failed" (-1) y
          else Alcotest.(check int) "healthy task survives" i y);
      Alcotest.(check (list int)) "only the wedged task failed" [ 3 ] !failed);
  Alcotest.(check bool) "watchdog reap recorded" true
    (Coordinator.stat_hangs () - h0 >= 1);
  (* 2 tolerated deaths at ~0.5s each plus slack: nowhere near a stall *)
  Alcotest.(check bool) "reaped within the wall-clock budget" true
    (Unix.gettimeofday () -. t0 < 20.0)

let worker_exception_reaches_on_task_fail () =
  requires_fork ();
  Coordinator.with_pool ~workers:2
    ~worker:(fun x -> if x = 2 then failwith "boom-2" else x)
    (fun pool ->
      let msgs = ref [] in
      Coordinator.run_ordered pool (List.init 5 Fun.id)
        ~on_task_fail:(fun i _ msg ->
          msgs := (i, msg) :: !msgs;
          -1)
        ~consume:(fun _ _ _ -> ());
      match !msgs with
      | [ (2, msg) ] ->
          Alcotest.(check bool) "exception text shipped back" true
            (let lc = String.lowercase_ascii msg in
             String.length lc >= 6
             &&
             let rec find i =
               i + 6 <= String.length lc
               && (String.sub lc i 6 = "boom-2" || find (i + 1))
             in
             find 0)
      | other ->
          Alcotest.failf "want exactly task 2 failed, got %d failures"
            (List.length other))

let respawn_budget_exhausts () =
  requires_fork ();
  (* task 2 is lethal every time and the task-death tolerance is higher
     than the respawn budget: the pool must give up with Exhausted, not
     revive workers forever *)
  let limits =
    {
      Coordinator.default_limits with
      li_respawn_budget = 2;
      li_task_deaths = 10;
      li_backoff_ms = 1;
    }
  in
  match
    Coordinator.with_pool ~workers:2 ~limits
      ~worker:(fun x -> if x = 2 then Unix._exit 70 else x)
      (fun pool ->
        Coordinator.run_ordered pool (List.init 8 Fun.id)
          ~consume:(fun _ _ _ -> ()))
  with
  | () -> Alcotest.fail "a lethal task must exhaust the respawn budget"
  | exception Coordinator.Exhausted msg ->
      Alcotest.(check bool) "diagnostic is populated" true
        (String.length msg > 0)

(* --- the determinism contract, on real campaigns --- *)

(* worker_kill draws hard-SIGKILL the worker process mid-case (absorbed
   in-process at workers=0); crash/flaky keep the supervisor's retry and
   quarantine machinery live at the same time, so identity covers the
   interaction of both fault layers. *)
let kill_plan =
  lazy
    (match
       Faultplan.of_spec
         "seed=11;targets=Hermes|Rhino|Nashorn;worker_kill=0.25;crash=0.3;flaky=0.3"
     with
    | Ok p -> p
    | Error e -> failwith e)

let run_kill_chaos ?checkpoint ?halt_after ?worker_limits ~workers () =
  Campaign.run ~budget:12 ~workers
    ~faults:(Lazy.force kill_plan)
    ?checkpoint ?halt_after ?worker_limits
    (Campaign.comfort_fuzzer ~seed:23 ())

let campaign_identical_across_worker_counts () =
  requires_fork ();
  let base = run_kill_chaos ~workers:0 () in
  let k0 = Coordinator.stat_kills () in
  let r2 = run_kill_chaos ~workers:2 () in
  let kills = Coordinator.stat_kills () - k0 in
  Test_supervisor.check_results_equal "workers 0 vs 2" base r2;
  Alcotest.(check bool) "counters folded from children match" true
    (r2.Campaign.cp_specialized = base.Campaign.cp_specialized
    && r2.Campaign.cp_cow_clones = base.Campaign.cp_cow_clones);
  (* the fault plan really did hard-kill worker processes — this run
     exercised recovery, not a quiet pool *)
  Alcotest.(check bool) "real hard-kills occurred" true (kills > 0);
  Test_supervisor.check_results_equal "workers 0 vs 1" base
    (run_kill_chaos ~workers:1 ());
  Test_supervisor.check_results_equal "workers 0 vs 4" base
    (run_kill_chaos ~workers:4 ())

let campaign_halt_resume_across_worker_counts () =
  requires_fork ();
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      "comfort-test-worker-resume.ckpt"
  in
  let uninterrupted = run_kill_chaos ~workers:0 () in
  (* killed after 7 cases while running process-isolated... *)
  (match run_kill_chaos ~workers:2 ~checkpoint:(path, 5) ~halt_after:7 () with
  | _ -> Alcotest.fail "halt_after must raise"
  | exception Campaign.Halted { halted_at; _ } ->
      Alcotest.(check int) "halted where asked" 7 halted_at);
  (* ...and resumed under a different worker count entirely. The state
     is reloaded per resume: a thawed snapshot carries mutable filter
     tables, so each resume needs its own copy. *)
  let load () =
    match Campaign.Checkpoint.load path with
    | Error e -> Alcotest.failf "checkpoint unreadable: %s" e
    | Ok st -> st
  in
  Test_supervisor.check_results_equal "halt at workers=2, resume at workers=3"
    uninterrupted
    (Campaign.resume ~workers:3 (load ()));
  Test_supervisor.check_results_equal "halt at workers=2, resume in-process"
    uninterrupted
    (Campaign.resume ~workers:0 (load ()));
  Sys.remove path

let campaign_exhaustion_aborts_with_partial_report () =
  requires_fork ();
  (* a 0.1ms watchdog no differential sweep can beat: every dispatch is
     reaped as a hang, every reap is an unexpected death charging the
     tiny respawn budget, and the campaign must come back as an aborted
     partial report (PR 5's pool-exhaustion semantics), not raise.
     (Deliberate [worker_kill] deaths cannot exhaust the pool any more
     — they respawn free of charge — which the identity tests above
     rely on.) *)
  let worker_limits =
    {
      Coordinator.li_watchdog_s = 0.0001;
      li_task_deaths = 10;
      li_respawn_budget = 3;
      li_backoff_ms = 1;
    }
  in
  let res =
    Campaign.run ~budget:12 ~workers:2 ~worker_limits
      (Campaign.comfort_fuzzer ~seed:23 ())
  in
  match res.Campaign.cp_aborted with
  | Some msg ->
      Alcotest.(check bool) "abort names the worker pool" true
        (let lc = String.lowercase_ascii msg in
         let rec find i =
           i + 6 <= String.length lc
           && (String.sub lc i 6 = "worker" || find (i + 1))
         in
         find 0)
  | None -> Alcotest.fail "budget exhaustion must abort the campaign"

let no_fork_degrades_to_in_process () =
  (* the CI escape hatch: with COMFORT_NO_FORK set, the same ~workers
     request runs on the in-process executor with an unchanged report *)
  let base = run_kill_chaos ~workers:0 () in
  Unix.putenv "COMFORT_NO_FORK" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "COMFORT_NO_FORK" "")
    (fun () ->
      Alcotest.(check bool) "fork reported unavailable" false
        (Coordinator.available ());
      let r0 = Coordinator.stat_respawns () in
      Test_supervisor.check_results_equal "degraded vs in-process" base
        (run_kill_chaos ~workers:2 ());
      Alcotest.(check int) "no process was forked" r0
        (Coordinator.stat_respawns ()))

let suite =
  [
    Helpers.case "pool: replies consumed in submission order"
      pool_runs_in_order;
    Helpers.case "pool: crash -> respawn + re-dispatch, run completes"
      crashed_worker_respawned_task_redispatched;
    Helpers.case "pool: wedged worker reaped by watchdog"
      wedged_worker_reaped_within_budget;
    Helpers.case "pool: worker exception ships back as a string"
      worker_exception_reaches_on_task_fail;
    Helpers.case "pool: respawn budget exhaustion raises"
      respawn_budget_exhausts;
    Helpers.case "campaign: identical at workers 0/1/2/4 under worker_kill"
      campaign_identical_across_worker_counts;
    Helpers.case "campaign: halt + resume across worker counts"
      campaign_halt_resume_across_worker_counts;
    Helpers.case "campaign: pool exhaustion -> aborted partial report"
      campaign_exhaustion_aborts_with_partial_report;
    Helpers.case "campaign: COMFORT_NO_FORK degrades in-process"
      no_fork_degrades_to_in_process;
  ]
