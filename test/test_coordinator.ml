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
      Coordinator.run_ordered pool (Seq.init 24 Fun.id)
        ~consume:(fun i x y ->
          Alcotest.(check int) "task order" i x;
          Alcotest.(check int) "reply" (x * x) y;
          seen := i :: !seen);
      Alcotest.(check int) "all consumed" 24 (List.length !seen);
      Alcotest.(check bool) "in submission order" true
        (!seen = List.rev (List.init 24 Fun.id)))

(* Tasks are pulled as workers free up, a bounded window ahead of the
   consumed ones: an endless stream stopped after 10 consumes was read
   no further than that window. *)
let stream_is_pulled_lazily () =
  requires_fork ();
  Coordinator.with_pool ~workers:2
    ~worker:(fun x -> x * x)
    (fun pool ->
      let pulled = ref 0 and consumed = ref 0 in
      Coordinator.run_ordered pool
        (Seq.ints 0 |> Seq.map (fun i -> incr pulled; i))
        ~stop:(fun () -> !consumed >= 10)
        ~consume:(fun i x y ->
          Alcotest.(check int) "task order" i x;
          Alcotest.(check int) "reply" (x * x) y;
          incr consumed);
      Alcotest.(check int) "stopped after 10" 10 !consumed;
      Alcotest.(check bool)
        (Printf.sprintf "read-ahead bounded (%d pulled)" !pulled)
        true
        (!pulled <= 10 + (64 * 2)))

let halted_run_leaves_no_stale_replies () =
  requires_fork ();
  (* a run halted by [stop] leaves tasks in flight; the next run on the
     same pool must not take their replies for its own *)
  Coordinator.with_pool ~workers:2
    ~worker:(fun x -> x * x)
    (fun pool ->
      let consumed = ref 0 in
      Coordinator.run_ordered pool (Seq.init 10 Fun.id)
        ~stop:(fun () -> !consumed >= 1)
        ~consume:(fun _ _ _ -> incr consumed);
      Alcotest.(check int) "first run halted early" 1 !consumed;
      let replies = ref [] in
      Coordinator.run_ordered pool
        (Seq.init 10 (fun i -> 100 + i))
        ~consume:(fun _ x y ->
          Alcotest.(check int) "reply belongs to this run" (x * x) y;
          replies := y :: !replies);
      Alcotest.(check int) "second run complete" 10 (List.length !replies))

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
          Coordinator.run_ordered pool (Seq.init 10 Fun.id)
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
      Coordinator.li_watchdog_s = 0.5;
      li_task_deaths = 1;
      li_respawn_budget = 32;
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
      Coordinator.run_ordered pool (Seq.init 6 Fun.id)
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
      Coordinator.run_ordered pool (Seq.init 5 Fun.id)
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
      Coordinator.li_watchdog_s = 30.0;
      li_task_deaths = 10;
      li_respawn_budget = 2;
      li_backoff_ms = 1;
    }
  in
  match
    Coordinator.with_pool ~workers:2 ~limits
      ~worker:(fun x -> if x = 2 then Unix._exit 70 else x)
      (fun pool ->
        Coordinator.run_ordered pool (Seq.init 8 Fun.id)
          ~consume:(fun _ _ _ -> ()))
  with
  | () -> Alcotest.fail "a lethal task must exhaust the respawn budget"
  | exception Coordinator.Exhausted msg ->
      Alcotest.(check bool) "diagnostic is populated" true
        (String.length msg > 0)

(* --- pipelining: deaths with a task queued behind the executing one ---

   A worker holds two tasks: the one it executes and the next, waiting in
   its pipe. At [workers = 1] every death below therefore happens with a
   task queued. [li_task_deaths = 0] fails a task on its first charged
   death, so the failure lane names exactly the tasks that were charged:
   only the executing one, while the queued one completes. *)

let pipelined_limits =
  {
    Coordinator.li_watchdog_s = 0.5;
    li_task_deaths = 0;
    li_respawn_budget = 32;
    li_backoff_ms = 1;
  }

let pipelined_run ~workers worker =
  Coordinator.with_pool ~workers ~limits:pipelined_limits ~worker (fun pool ->
      let out = ref [] in
      Coordinator.run_ordered pool (Seq.init 8 Fun.id)
        ~on_task_fail:(fun i _ _ -> -1 - i)
        ~consume:(fun _ _ y -> out := y :: !out);
      List.rev !out)

(* task 3 is charged and failed (-4); every other task, task 4 queued
   behind it included, completes *)
let only_task_3_failed = [ 0; 10; 20; -4; 40; 50; 60; 70 ]

let pipelined_crash_charges_executing_task () =
  requires_fork ();
  let worker x = if x = 3 then Unix._exit 9 else x * 10 in
  List.iter
    (fun workers ->
      Alcotest.(check (list int))
        (Printf.sprintf "workers=%d" workers)
        only_task_3_failed
        (pipelined_run ~workers worker))
    [ 1; 2 ]

let pipelined_hang_charges_executing_task () =
  requires_fork ();
  let worker x =
    if x = 3 then (
      while true do
        ignore (Sys.opaque_identity 1)
      done;
      assert false)
    else x * 10
  in
  let h0 = Coordinator.stat_hangs () in
  List.iter
    (fun workers ->
      Alcotest.(check (list int))
        (Printf.sprintf "workers=%d" workers)
        only_task_3_failed
        (pipelined_run ~workers worker))
    [ 1; 2 ];
  Alcotest.(check int) "one watchdog reap per run" 2
    (Coordinator.stat_hangs () - h0)

let pipelined_kill_charges_executing_task () =
  requires_fork ();
  (* Tasks 3 and 4 draw [worker_kill] on every attempt. A task's
     absorb count rises by one per kill, and three absorbed draws (the
     default policy's three attempts) let it finish as [Faulted], the
     in-process outcome: three kills per task. Charging task 3's kills
     to task 4, queued behind it, would let task 4 finish with fewer. *)
  let plan =
    match Faultplan.of_spec "seed=1;worker_kill=1.0" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let worker x =
    if x = 3 || x = 4 then
      match
        Comfort.Supervisor.execute ~plan ~testbed_id:"toy" ~case_key:x
          (fun () -> x * 10)
      with
      | Comfort.Supervisor.Done (v, _) -> v
      | Comfort.Supervisor.Faulted r -> 1000 + r.Comfort.Supervisor.fr_attempts
      | Comfort.Supervisor.Skipped -> -99
    else x * 10
  in
  (* the driver never arms the kill hook: this is the in-process run *)
  let in_process = List.init 8 worker in
  Alcotest.(check int) "in-process, the kill draws fault the task" 1003
    (List.nth in_process 3);
  List.iter
    (fun workers ->
      let k0 = Coordinator.stat_kills () in
      Alcotest.(check (list int))
        (Printf.sprintf "workers=%d" workers)
        in_process
        (pipelined_run ~workers worker);
      Alcotest.(check int)
        (Printf.sprintf "three kills per task at workers=%d" workers)
        6
        (Coordinator.stat_kills () - k0))
    [ 1; 2 ]

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

(* Every registered count a child moves folds home with its replies, so
   a campaign's deltas match in-process ones, real hard-kills included.
   A worker skips the testbeds of the quarantine roster shipped with its
   dispatch; a case already in flight when an earlier case quarantines a
   testbed still runs it, so under crash-driven quarantine the counts
   that executions move (strict runs answered by a sloppy one among
   them) may only be higher on workers. Two sources add
   runs, each bounded apart:
   - the workers': a quarantined testbed runs only on the other cases
     two workers hold in flight, two deep, when it trips (2 * 2 - 1),
     at most three tries each;
   - the driver's: a case judged against a roster that grew in flight
     is judged again on the driver ([campaign.rejudged]), a sweep of at
     most every testbed, at most three tries each.
   Three counts differ by design: an in-process sweep takes the draw's
   front end ([engines.handed_frontends]) where a worker parses the case
   itself, and the pool's own counts (respawns, kills) and the driver's
   re-judged cases exist only with workers. *)
let counts_folded_from_children plan () =
  requires_fork ();
  let plan = Lazy.force plan in
  let deltas workers =
    let counts0 = Cutil.Counter.snapshot () in
    let r =
      Campaign.run ~budget:12 ~workers ~faults:plan
        (Campaign.comfort_fuzzer ~seed:23 ())
    in
    (r, Cutil.Counter.since counts0)
  in
  let r0, delta0 = deltas 0 in
  let k0 = Coordinator.stat_kills () in
  let _, delta2 = deltas 2 in
  Alcotest.(check bool) "real hard-kills occurred" true
    (Coordinator.stat_kills () > k0);
  let names = List.map fst (Cutil.Counter.to_list ()) in
  let at delta name =
    match List.find_index (String.equal name) names with
    | Some i -> delta.(i)
    | None -> Alcotest.failf "no counter %s" name
  in
  let handed = at delta0 "engines.handed_frontends" in
  Alcotest.(check bool) "in-process sweeps took the draw's front ends" true
    (handed > 0);
  Alcotest.(check int) "workers took none" 0
    (at delta2 "engines.handed_frontends");
  let quarantined = List.length r0.Campaign.cp_quarantined in
  let worker_runs = quarantined * ((2 * 2) - 1) * 3 in
  let driver_runs =
    at delta2 "campaign.rejudged"
    * List.length (Campaign.default_testbeds ())
    * 3
  in
  let extra_runs = worker_runs + driver_runs in
  List.iteri
    (fun i name ->
      let w0 =
        if name = "jsparse.parses" then delta0.(i) + handed else delta0.(i)
      in
      if
        String.starts_with ~prefix:"coordinator." name
        || name = "engines.handed_frontends"
        || name = "campaign.rejudged"
      then ()
      else if quarantined = 0 then
        Alcotest.(check int) (name ^ " folded from children") w0 delta2.(i)
      else if
        String.starts_with ~prefix:"jsinterp." name
        || name = "jsparse.parses" || name = "engines.mode_shared"
      then begin
        Alcotest.(check bool)
          (Printf.sprintf "%s: workers ran what in-process ran (%d <= %d)"
             name w0 delta2.(i))
          true (w0 <= delta2.(i));
        if name = "jsinterp.runs" then
          Alcotest.(check bool)
            (Printf.sprintf
               "%s: extra runs (%d) within the lookahead (%d) and the \
                re-judged cases (%d)"
               name (delta2.(i) - w0) worker_runs driver_runs)
            true
            (delta2.(i) - w0 <= extra_runs)
      end
      else Alcotest.(check int) (name ^ " folded from children") w0 delta2.(i))
    names

(* A case in flight when an earlier case quarantines a testbed was
   swept and judged against the roster of its dispatch; the driver
   judges it again against the grown roster, so the report is the
   in-process one. In-process, every case is judged against the roster
   of the moment and none is judged again. *)
let stale_roster_cases_are_rejudged () =
  requires_fork ();
  let plan =
    match Faultplan.of_spec "seed=11;targets=Hermes;crash=1.0" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let run workers =
    let counts0 = Cutil.Counter.snapshot () in
    let r =
      Campaign.run ~budget:200 ~workers ~faults:plan
        (Campaign.comfort_fuzzer ~seed:5 ())
    in
    let delta = Cutil.Counter.since counts0 in
    match
      List.find_index
        (fun (name, _) -> name = "campaign.rejudged")
        (Cutil.Counter.to_list ())
    with
    | Some i -> (r, delta.(i))
    | None -> Alcotest.fail "no counter campaign.rejudged"
  in
  let r0, rejudged0 = run 0 in
  let r2, rejudged2 = run 2 in
  Alcotest.(check int) "in-process: no case judged again" 0 rejudged0;
  Alcotest.(check bool)
    (Printf.sprintf "2 workers: cases judged again (%d)" rejudged2)
    true (rejudged2 > 0);
  Test_supervisor.check_results_equal "workers 0 vs 2" r0 r2

let flaky_kill_plan =
  lazy
    (match
       Faultplan.of_spec "seed=11;targets=Hermes|Rhino|Nashorn;worker_kill=0.25;flaky=0.3"
     with
    | Ok p -> p
    | Error e -> failwith e)

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
     is reloaded per resume: a loaded snapshot carries mutable filter
     tables, so each resume needs its own copy. *)
  let load () =
    match Campaign.Checkpoint.load path with
    | Error e -> Alcotest.failf "checkpoint unreadable: %s" e
    | Ok st -> st
  in
  Test_supervisor.check_results_equal "halt at workers=2, resume at workers=3"
    uninterrupted
    (Campaign.resume ~workers:3 (load ())
       (Campaign.comfort_fuzzer ~seed:23 ()));
  Test_supervisor.check_results_equal "halt at workers=2, resume in-process"
    uninterrupted
    (Campaign.resume ~workers:0 (load ())
       (Campaign.comfort_fuzzer ~seed:23 ()));
  Sys.remove path

(* A fuzzer's pulls are not the campaign's work: the campaign's
   compilation and COW counts are its sweeps' alone, as when the whole
   budget was drawn before the first sweep (32 compilations here), and
   cases drawn ahead of a checkpoint, in-process or by the pool, are
   drawn again on resume without being counted twice. Every pull parses
   its case ([jsparse.parses]), but the report carries no parse count,
   so the fuzzer here also runs each case it yields on the Fast
   strategy: its pulls then move the compilations the report carries. *)
let fuzzer_runs_stay_out_of_campaign_counts () =
  requires_fork ();
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      "comfort-test-fuzzilli-resume.ckpt"
  in
  let running_fuzzilli () =
    let fz = Baselines.Fuzzers.fuzzilli ~seed:3 () in
    Campaign.make_fuzzer ~name:fz.Campaign.fz_name ~seed:fz.Campaign.fz_seed
      ~raw:None (fun () ->
        let pull = fz.Campaign.fz_next () in
        Option.iter
          (fun ((tc : Comfort.Testcase.t), _) ->
            ignore
              (Jsinterp.Run.run ~fuel:50_000 ~strategy:Jsinterp.Strategy.Fast
                 tc.Comfort.Testcase.tc_source))
          pull;
        pull)
  in
  (* the Fast strategy on both legs: Reference compiles nothing *)
  let run ?checkpoint ?halt_after ?(fuzzer = running_fuzzilli) workers =
    Campaign.run ~budget:30 ~workers ~strategy:Jsinterp.Strategy.Fast
      ?checkpoint ?halt_after (fuzzer ())
  in
  let whole = run 0 in
  Alcotest.(check int) "the sweeps' compilations" 32
    whole.Campaign.cp_specialized;
  Alcotest.(check int) "the same without the fuzzer's runs"
    whole.Campaign.cp_specialized
    (run ~fuzzer:(fun () -> Baselines.Fuzzers.fuzzilli ~seed:3 ()) 0)
      .Campaign.cp_specialized;
  List.iter
    (fun workers ->
      let label = Printf.sprintf "halted and resumed at workers=%d" workers in
      (match run ~checkpoint:(path, 4) ~halt_after:10 workers with
      | _ -> Alcotest.fail "halt_after must raise"
      | exception Campaign.Halted _ -> ());
      let resumed =
        match Campaign.Checkpoint.load path with
        | Error e -> Alcotest.failf "checkpoint unreadable: %s" e
        | Ok st ->
            Campaign.resume ~workers st (running_fuzzilli ())
      in
      Test_supervisor.check_results_equal label whole resumed;
      Alcotest.(check int) (label ^ ": compilations")
        whole.Campaign.cp_specialized resumed.Campaign.cp_specialized;
      Alcotest.(check int) (label ^ ": COW clones")
        whole.Campaign.cp_cow_clones resumed.Campaign.cp_cow_clones;
      Alcotest.(check int) (label ^ ", uninterrupted: compilations")
        whole.Campaign.cp_specialized (run workers).Campaign.cp_specialized)
    [ 0; 2 ];
  Sys.remove path

(* [engines.mode_shared] counts strict runs answered by a sloppy
   representative: none under Reference, which shares nothing, some
   under Fast, and as many on two forked workers as in-process. *)
let mode_shared_is_counted () =
  requires_fork ();
  let mode_shared strategy workers =
    let counts0 = Cutil.Counter.snapshot () in
    ignore
      (Campaign.run ~budget:20 ~workers ~strategy
         (Campaign.comfort_fuzzer ~seed:23 ()));
    let delta = Cutil.Counter.since counts0 in
    match
      List.find_index
        (fun (name, _) -> name = "engines.mode_shared")
        (Cutil.Counter.to_list ())
    with
    | Some i -> delta.(i)
    | None -> Alcotest.fail "no counter engines.mode_shared"
  in
  Alcotest.(check int) "Reference: none" 0
    (mode_shared Jsinterp.Strategy.Reference 0);
  let w0 = mode_shared Jsinterp.Strategy.Fast 0 in
  Alcotest.(check bool) (Printf.sprintf "Fast: %d strict runs shared" w0) true
    (w0 > 0);
  Alcotest.(check int) "Fast, 2 workers: as many as in-process" w0
    (mode_shared Jsinterp.Strategy.Fast 2)

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
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      "comfort-test-pool-exhausted.ckpt"
  in
  let res =
    Campaign.run ~budget:12 ~workers:2 ~worker_limits
      ~checkpoint:(path, 1000)
      (Campaign.comfort_fuzzer ~seed:23 ())
  in
  (match res.Campaign.cp_aborted with
  | Some msg ->
      Alcotest.(check bool) "abort names the worker pool" true
        (let lc = String.lowercase_ascii msg in
         let rec find i =
           i + 6 <= String.length lc
           && (String.sub lc i 6 = "worker" || find (i + 1))
         in
         find 0)
  | None -> Alcotest.fail "budget exhaustion must abort the campaign");
  (* the draw stops where it stands: the partial report's tallies are
     those of the cases pulled up to the last consumed one *)
  let fz = Campaign.comfort_fuzzer ~seed:23 () in
  let rec prefix kept out repaired =
    if kept = res.Campaign.cp_cases_run then (out, repaired)
    else
      match fz.Campaign.fz_next () with
      | None -> Alcotest.fail "the fuzzer ran dry"
      | Some (tc, _) -> (
          match Campaign.screen_case tc with
          | Campaign.S_kept _ -> prefix (kept + 1) out repaired
          | Campaign.S_repaired _ -> prefix (kept + 1) out (repaired + 1)
          | Campaign.S_dropped _ -> prefix kept (out + 1) repaired)
  in
  let out, repaired = prefix 0 0 0 in
  Alcotest.(check int) "screened out, as the consumed prefix" out
    res.Campaign.cp_screened_out;
  Alcotest.(check int) "repaired, as the consumed prefix" repaired
    res.Campaign.cp_repaired;
  (* the worker pool's exhaustion is not stored: a resume on a healthy
     pool runs the rest and ends as the uninterrupted campaign *)
  let full = Campaign.run ~budget:12 (Campaign.comfort_fuzzer ~seed:23 ()) in
  let st =
    match Campaign.Checkpoint.load path with
    | Ok st -> st
    | Error e -> Alcotest.failf "checkpoint unreadable: %s" e
  in
  Sys.remove path;
  Test_supervisor.check_results_equal "resumed on a healthy pool" full
    (Campaign.resume ~workers:2 st (Campaign.comfort_fuzzer ~seed:23 ()))

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
    Helpers.case "pool: an endless task stream is pulled lazily"
      stream_is_pulled_lazily;
    Helpers.case "pool: a halted run leaves no stale replies"
      halted_run_leaves_no_stale_replies;
    Helpers.case "pool: crash -> respawn + re-dispatch, run completes"
      crashed_worker_respawned_task_redispatched;
    Helpers.case "pool: wedged worker reaped by watchdog"
      wedged_worker_reaped_within_budget;
    Helpers.case "pool: worker exception ships back as a string"
      worker_exception_reaches_on_task_fail;
    Helpers.case "pool: respawn budget exhaustion raises"
      respawn_budget_exhausts;
    Helpers.case "pipeline: crash charges only the executing task"
      pipelined_crash_charges_executing_task;
    Helpers.case "pipeline: hang charges only the executing task"
      pipelined_hang_charges_executing_task;
    Helpers.case "pipeline: worker_kill charges only the executing task"
      pipelined_kill_charges_executing_task;
    Helpers.case "campaign: identical at workers 0/1/2/4 under worker_kill"
      campaign_identical_across_worker_counts;
    Helpers.case "campaign: every count folds home from children"
      (counts_folded_from_children flaky_kill_plan);
    Helpers.case "campaign: every count folds home under kill-chaos"
      (counts_folded_from_children kill_plan);
    Helpers.case "campaign: stale-roster cases are judged again"
      stale_roster_cases_are_rejudged;
    Helpers.case "campaign: halt + resume across worker counts"
      campaign_halt_resume_across_worker_counts;
    Helpers.case "campaign: a fuzzer's own runs stay out of its counts"
      fuzzer_runs_stay_out_of_campaign_counts;
    Helpers.case "campaign: strict runs shared by sloppy ones are counted"
      mode_shared_is_counted;
    Helpers.case "campaign: pool exhaustion -> aborted partial report"
      campaign_exhaustion_aborts_with_partial_report;
    Helpers.case "campaign: COMFORT_NO_FORK degrades in-process"
      no_fork_degrades_to_in_process;
  ]
