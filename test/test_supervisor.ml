(* Supervised execution: fault injection, retry, quarantine, checkpoint.

   The properties that matter, each covered directly:

   - fault plans are deterministic pure functions of (seed, testbed, case,
     attempt), and their spec syntax refuses malformed specs;
   - [Supervisor.execute] retries transient faults with deterministic
     backoff, gives up on persistent ones, and injected faults can never
     surface as engine behaviour;
   - the driver quarantines testbeds after K consecutive faulted cases
     and an intervening success resets the counter;
   - the in-process campaign loop records a case whose worker raised as
     failed-and-skipped instead of dying, and halts early once the
     testbed pool is exhausted;
   - a chaos campaign completes, quarantines the persistent faulter,
     reports the degraded coverage, leaks zero injected faults into the
     discoveries, and is byte-identical in-process and on forked
     workers;
   - a campaign halted at a checkpoint and resumed produces a result
     identical to the uninterrupted run's. *)

module Supervisor = Comfort.Supervisor
module Faultplan = Comfort.Supervisor.Faultplan
module Campaign = Comfort.Campaign

let plan_of_spec spec =
  match Faultplan.of_spec spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "spec %S rejected: %s" spec e

let contains haystack needle =
  let lh = String.lowercase_ascii haystack
  and ln = String.lowercase_ascii needle in
  let nh = String.length lh and nn = String.length ln in
  let rec scan i = i + nn <= nh && (String.sub lh i nn = ln || scan (i + 1)) in
  scan 0

(* --- fault plans --- *)

let plan_spec_validation () =
  ignore
    (plan_of_spec
       "seed=9;targets=V8|Hermes;crash=0.1;hang=0.05;flaky=0.3;flaky_tries=2;slow=0.2");
  Alcotest.(check bool) "unknown key rejected" true
    (Result.is_error (Faultplan.of_spec "seed=1;crsh=0.5"));
  Alcotest.(check bool) "probability out of range rejected" true
    (Result.is_error (Faultplan.of_spec "crash=1.5"));
  Alcotest.(check bool) "malformed field rejected" true
    (Result.is_error (Faultplan.of_spec "seed"))

let plan_from_env () =
  Unix.putenv "COMFORT_FAULTS" "seed=3;crash=0.5";
  (match Faultplan.from_env () with
  | Some p ->
      Alcotest.(check bool) "env plan parsed" true
        (p = plan_of_spec "seed=3;crash=0.5")
  | None -> Alcotest.fail "COMFORT_FAULTS ignored");
  Unix.putenv "COMFORT_FAULTS" "nonsense";
  Alcotest.check_raises "malformed env spec fails loudly"
    (Invalid_argument
       "COMFORT_FAULTS: malformed field \"nonsense\" (want key=value)")
    (fun () -> ignore (Faultplan.from_env ()));
  Unix.putenv "COMFORT_FAULTS" "";
  Alcotest.(check bool) "empty env means no plan" true
    (Faultplan.from_env () = None)

let plan_draw_is_deterministic () =
  let p = plan_of_spec "seed=9;crash=0.3;hang=0.1;flaky=0.2;slow=0.2" in
  let draw tb ck a = Faultplan.draw p ~testbed_id:tb ~case_key:ck ~attempt:a in
  (* pure: the same key always yields the same fault *)
  for ck = 0 to 40 do
    for a = 0 to 3 do
      Alcotest.(check bool) "same key, same draw" true
        (draw "v8-8.0[normal]" ck a = draw "v8-8.0[normal]" ck a)
    done
  done;
  (* non-degenerate: across keys the plan both faults and spares *)
  let faults =
    List.length
      (List.filter
         (fun ck -> draw "v8-8.0[normal]" ck 0 <> None)
         (List.init 200 (fun i -> i)))
  in
  Alcotest.(check bool) "some draws fault" true (faults > 0);
  Alcotest.(check bool) "some draws pass" true (faults < 200)

let plan_targets_filter () =
  let p = plan_of_spec "seed=1;targets=Hermes;crash=1.0" in
  Alcotest.(check bool) "targeted (case-insensitive substring)" true
    (Faultplan.targets p "hermes-0.7[strict]");
  Alcotest.(check bool) "untargeted" false (Faultplan.targets p "v8-8.0[normal]");
  Alcotest.(check bool) "untargeted testbeds never draw faults" true
    (List.for_all
       (fun ck ->
         Faultplan.draw p ~testbed_id:"v8-8.0[normal]" ~case_key:ck ~attempt:0
         = None)
       (List.init 50 (fun i -> i)))

(* --- supervised execution --- *)

let execute_retry_then_succeed () =
  (* flaky with certainty for 2 attempts: burns both retries, then runs *)
  let p = plan_of_spec "seed=5;flaky=1.0;flaky_tries=2" in
  match
    Supervisor.execute ~plan:p ~testbed_id:"tb" ~case_key:0 (fun () -> 42)
  with
  | Supervisor.Done (v, meta) ->
      Alcotest.(check int) "value" 42 v;
      Alcotest.(check int) "two failed attempts absorbed" 2
        meta.Supervisor.em_retries;
      (* deterministic backoff: base * 2^0 + base * 2^1 = 30 *)
      Alcotest.(check int) "backoff accounted" 30 meta.Supervisor.em_backoff
  | Supervisor.Faulted _ -> Alcotest.fail "transient fault should clear"
  | Supervisor.Skipped -> Alcotest.fail "nothing quarantined here"

let execute_gives_up_on_persistent_fault () =
  let p = plan_of_spec "seed=5;crash=1.0" in
  match
    Supervisor.execute ~plan:p ~testbed_id:"tb" ~case_key:0 (fun () -> 42)
  with
  | Supervisor.Faulted fr ->
      Alcotest.(check bool) "crash" true (fr.Supervisor.fr_kind = Supervisor.F_crash);
      Alcotest.(check int) "first try + default 2 retries" 3
        fr.Supervisor.fr_attempts;
      Alcotest.(check int) "trail records every attempt" 3
        (List.length fr.Supervisor.fr_trail);
      Alcotest.(check int) "backoff accounted" 30 fr.Supervisor.fr_backoff
  | _ -> Alcotest.fail "a certain crash must exhaust the budget"

let execute_retries_real_exceptions () =
  (* a real escaped exception is retried like an injected crash: a
     transient harness flake clears, a deterministic bug becomes F_exn *)
  let calls = ref 0 in
  (match
     Supervisor.execute ~testbed_id:"tb" ~case_key:0 (fun () ->
         incr calls;
         if !calls = 1 then failwith "transient flake" else 7)
   with
  | Supervisor.Done (7, meta) ->
      Alcotest.(check int) "one retry" 1 meta.Supervisor.em_retries
  | _ -> Alcotest.fail "flake should clear on retry");
  match
    Supervisor.execute ~testbed_id:"tb" ~case_key:0 (fun () -> failwith "always")
  with
  | Supervisor.Faulted fr -> (
      match fr.Supervisor.fr_kind with
      | Supervisor.F_exn _ -> ()
      | _ -> Alcotest.fail "wrong kind: want F_exn")
  | _ -> Alcotest.fail "deterministic exception must fault"

let execute_slow_start_vs_watchdog () =
  let p = plan_of_spec "seed=5;slow=1.0;slow_max=50" in
  (* within the default 100-unit watchdog budget: merely slow *)
  (match
     Supervisor.execute ~plan:p ~testbed_id:"tb" ~case_key:0 (fun () -> 1)
   with
  | Supervisor.Done (1, meta) ->
      Alcotest.(check int) "slow start absorbed" 1 meta.Supervisor.em_slow
  | _ -> Alcotest.fail "slow start within budget should proceed");
  (* latencies far beyond the watchdog budget: indistinguishable from a
     hang, killed every try *)
  let p = plan_of_spec "seed=5;slow=1.0;slow_max=1000000" in
  match
    Supervisor.execute ~plan:p ~testbed_id:"tb" ~case_key:0 (fun () -> 1)
  with
  | Supervisor.Faulted fr -> (
      match fr.Supervisor.fr_kind with
      | Supervisor.F_slow _ -> ()
      | _ -> Alcotest.fail "wrong kind: want F_slow")
  | _ -> Alcotest.fail "slow start beyond the watchdog must be killed"

let injected_faults_never_return_values () =
  (* the carrier exception is caught by the supervisor, not the engine:
     a thunk that raises [Injected] can only fault, never produce *)
  match
    Supervisor.execute ~testbed_id:"tb" ~case_key:0 (fun () ->
        raise (Supervisor.Injected Supervisor.F_hang))
  with
  | Supervisor.Faulted fr ->
      Alcotest.(check bool) "hang preserved" true
        (fr.Supervisor.fr_kind = Supervisor.F_hang)
  | _ -> Alcotest.fail "injected fault leaked"

(* --- quarantine --- *)

let quarantine_after_consecutive_faults () =
  let sup = Supervisor.create () in  (* default threshold: 3 *)
  let fr =
    {
      Supervisor.fr_kind = Supervisor.F_crash;
      fr_attempts = 3;
      fr_trail = [ Supervisor.F_crash ];
      fr_backoff = 30;
    }
  in
  let fault ck = Supervisor.observe sup ~case_key:ck [ ("tb", Supervisor.Ob_faulted fr) ] in
  let ok ck = Supervisor.observe sup ~case_key:ck [ ("tb", Supervisor.Ob_ok Supervisor.ok_meta) ] in
  fault 1; fault 2;
  Alcotest.(check bool) "not yet" false (Supervisor.quarantined sup "tb");
  ok 3;  (* success resets the consecutive counter *)
  fault 4; fault 5;
  Alcotest.(check bool) "reset worked" false (Supervisor.quarantined sup "tb");
  fault 6;
  Alcotest.(check bool) "third consecutive fault trips" true
    (Supervisor.quarantined sup "tb");
  Alcotest.(check (list (pair string int))) "list records the tripping case"
    [ ("tb", 6) ]
    (Supervisor.quarantine_list sup);
  Alcotest.(check int) "faulted count" 5 (Supervisor.stats sup).Supervisor.st_faulted;
  (* a checkpoint marshals the supervisor as it is: the round trip keeps
     the whole driver state, consecutive-fault counters included *)
  let fault2 s ck = Supervisor.observe s ~case_key:ck [ ("tb2", Supervisor.Ob_faulted fr) ] in
  fault2 sup 7; fault2 sup 8;
  let sup' : Supervisor.t =
    Marshal.from_string (Marshal.to_string sup []) 0
  in
  Alcotest.(check bool) "reloaded quarantine" true (Supervisor.quarantined sup' "tb");
  Alcotest.(check (list (pair string int))) "reloaded list"
    (Supervisor.quarantine_list sup) (Supervisor.quarantine_list sup');
  Alcotest.(check bool) "reloaded stats" true
    (Supervisor.stats sup' = Supervisor.stats sup);
  fault2 sup' 9;
  Alcotest.(check bool) "reloaded counters trip on the third fault" true
    (Supervisor.quarantined sup' "tb2");
  Alcotest.(check bool) "the original is a separate copy" false
    (Supervisor.quarantined sup "tb2")

(* --- chaos campaigns --- *)

let testbeds = lazy (Campaign.default_testbeds ())

let chaos_plan =
  (* crashes, hangs and flakes on 6 of the 20 testbeds; crash=1.0 means
     every attempt on a targeted testbed faults one way or another, so
     all six must retry, exhaust the budget, and end up quarantined after
     the default 3 consecutive faulted cases — while each mode group
     keeps 7 live testbeds, so the campaign itself completes *)
  lazy
    (plan_of_spec
       "seed=11;targets=Hermes|Rhino|Nashorn;crash=1.0;hang=0.3;flaky=0.4")

let chaos_targets = [ "hermes"; "rhino"; "nashorn" ]

(* the fuzzer of the chaos and pool-exhaustion campaigns; resuming one
   of their checkpoints takes a fresh one *)
let chaos_fuzzer () = Campaign.comfort_fuzzer ~seed:23 ()

let run_chaos ?(workers = 0) ?checkpoint ?halt_after () =
  Campaign.run
    ~testbeds:(Lazy.force testbeds)
    ~budget:20 ~workers
    ~faults:(Lazy.force chaos_plan)
    ?checkpoint ?halt_after (chaos_fuzzer ())

let disc_key (d : Campaign.discovery) =
  ( Engines.Registry.engine_name d.Campaign.disc_engine,
    Jsinterp.Quirk.to_string d.Campaign.disc_quirk,
    d.Campaign.disc_at,
    d.Campaign.disc_behavior,
    d.Campaign.disc_version,
    Engines.Engine.mode_to_string d.Campaign.disc_mode,
    d.Campaign.disc_case.Comfort.Testcase.tc_source )

(* Field-wise result comparison (test-case ids are allocation counters,
   so discoveries are compared through [disc_key]). *)
let check_results_equal label (a : Campaign.result) (b : Campaign.result) =
  Alcotest.(check int) (label ^ ": cases") a.Campaign.cp_cases_run b.Campaign.cp_cases_run;
  Alcotest.(check bool) (label ^ ": discoveries") true
    (List.map disc_key a.Campaign.cp_discoveries
    = List.map disc_key b.Campaign.cp_discoveries);
  Alcotest.(check bool) (label ^ ": timeline") true
    (a.Campaign.cp_timeline = b.Campaign.cp_timeline);
  Alcotest.(check int) (label ^ ": filtered") a.Campaign.cp_filtered_repeats
    b.Campaign.cp_filtered_repeats;
  Alcotest.(check int) (label ^ ": unattributed") a.Campaign.cp_unattributed
    b.Campaign.cp_unattributed;
  Alcotest.(check int) (label ^ ": screened out") a.Campaign.cp_screened_out
    b.Campaign.cp_screened_out;
  Alcotest.(check bool) (label ^ ": screen reasons") true
    (a.Campaign.cp_screen_reasons = b.Campaign.cp_screen_reasons);
  Alcotest.(check int) (label ^ ": repaired") a.Campaign.cp_repaired
    b.Campaign.cp_repaired;
  Alcotest.(check int) (label ^ ": skipped cases") a.Campaign.cp_skipped_cases
    b.Campaign.cp_skipped_cases;
  Alcotest.(check bool) (label ^ ": fault stats") true
    (a.Campaign.cp_faults = b.Campaign.cp_faults);
  Alcotest.(check bool) (label ^ ": quarantine") true
    (a.Campaign.cp_quarantined = b.Campaign.cp_quarantined);
  Alcotest.(check bool) (label ^ ": aborted") true
    (a.Campaign.cp_aborted = b.Campaign.cp_aborted)

let chaos_campaign_quarantines_and_stays_clean () =
  let res = run_chaos () in
  let baseline =
    Campaign.run ~testbeds:(Lazy.force testbeds) ~budget:20
      (Campaign.comfort_fuzzer ~seed:23 ())
  in
  Alcotest.(check bool) "campaign completed" true
    (res.Campaign.cp_aborted = None);
  Alcotest.(check int) "all cases consumed" 20 res.Campaign.cp_cases_run;
  (* both Hermes testbeds fault persistently and are quarantined *)
  let quarantined = List.map fst res.Campaign.cp_quarantined in
  Alcotest.(check int) "all six targeted testbeds dropped" 6
    (List.length quarantined);
  Alcotest.(check bool) "only targeted testbeds were quarantined" true
    (List.for_all
       (fun id -> List.exists (contains id) chaos_targets)
       quarantined);
  let s = res.Campaign.cp_faults in
  Alcotest.(check bool) "faults were injected" true (s.Supervisor.st_faulted > 0);
  Alcotest.(check bool) "quarantine then skipped the faulter" true
    (s.Supervisor.st_skipped > 0);
  (* zero injected faults leak into the bug statistics: every discovery
     is a ground-truth (engine, quirk) pair, none is attributed to the
     faulted engine, and the discovery set is a subset of the no-fault
     baseline's *)
  Alcotest.(check bool) "discoveries are ground-truth bugs" true
    (List.for_all
       (fun (d : Campaign.discovery) ->
         List.mem
           (d.Campaign.disc_engine, d.Campaign.disc_quirk)
           Engines.Registry.all_bugs)
       res.Campaign.cp_discoveries);
  let base_keys = List.map disc_key baseline.Campaign.cp_discoveries in
  Alcotest.(check bool) "no fault-invented discoveries" true
    (List.for_all
       (fun d -> List.mem (disc_key d) base_keys)
       res.Campaign.cp_discoveries)

let chaos_campaign_is_workers_invariant () =
  check_results_equal "in-process vs 2 workers" (run_chaos ())
    (run_chaos ~workers:2 ())

(* A worker exception fails-and-skips its case instead of killing the
   in-process campaign. A kill hook whose [die] raises stands in for the
   exception: in-process nothing else catches it, so every case with a
   drawn [worker_kill] fault escapes its worker like a real crash would. *)
let in_process_worker_exception_skips_case () =
  Supervisor.arm_kill_hook ~absorb:0 ~die:(fun () -> raise Exit);
  let res =
    Fun.protect ~finally:Supervisor.disarm_kill_hook (fun () ->
        Campaign.run
          ~testbeds:(Lazy.force testbeds)
          ~budget:20 ~workers:0
          ~faults:(plan_of_spec "seed=5;targets=Hermes;worker_kill=0.1")
          (Campaign.comfort_fuzzer ~seed:23 ()))
  in
  Alcotest.(check int) "every case consumed" 20 res.Campaign.cp_cases_run;
  Alcotest.(check bool) "some cases failed-and-skipped" true
    (res.Campaign.cp_skipped_cases > 0);
  Alcotest.(check bool) "the others still judged" true
    (res.Campaign.cp_skipped_cases < 20);
  Alcotest.(check (option string)) "not aborted" None res.Campaign.cp_aborted

(* every testbed crashes on every attempt: by the time the quarantine
   threshold trips everywhere, no mode group can vote and the campaign
   winds down instead of burning the rest of the budget *)
let run_pool_exhausted ?checkpoint () =
  Campaign.run
    ~testbeds:(Lazy.force testbeds)
    ~budget:20
    ~faults:(plan_of_spec "seed=2;crash=1.0")
    ?checkpoint (chaos_fuzzer ())

let all_testbeds_quarantined_aborts () =
  let res = run_pool_exhausted () in
  Alcotest.(check bool) "aborted" true (res.Campaign.cp_aborted <> None);
  Alcotest.(check bool) "stopped early" true (res.Campaign.cp_cases_run < 20);
  Alcotest.(check bool) "no discoveries from injected faults" true
    (res.Campaign.cp_discoveries = []);
  Alcotest.(check int) "whole pool quarantined"
    (List.length (Lazy.force testbeds))
    (List.length res.Campaign.cp_quarantined)

(* A testbed-pool exhaustion stops the draw where it stands: a 5,000-case
   budget aborted after 3 cases pulls only those cases and the ones the
   screen dropped before them, plus, on forked workers, what the pool
   had pulled ahead (at most its window of 64 cases per worker). The
   report's tallies are the consumed prefix's, so they agree at w0 and
   w2. *)
let pool_exhaustion_stops_the_draw () =
  let run workers =
    let fz = chaos_fuzzer () in
    let pulls = ref 0 in
    let counted =
      Campaign.make_fuzzer ~name:fz.Campaign.fz_name ~seed:fz.Campaign.fz_seed
        ~raw:None (fun () ->
          incr pulls;
          fz.Campaign.fz_next ())
    in
    let res =
      Campaign.run ~testbeds:(Lazy.force testbeds) ~budget:5000 ~workers
        ~faults:(plan_of_spec "seed=2;crash=1.0")
        counted
    in
    Alcotest.(check int) "stopped at the quarantine threshold" 3
      res.Campaign.cp_cases_run;
    Alcotest.(check bool) "aborted by the testbed pool" true
      (match res.Campaign.cp_aborted with
      | Some r -> contains r "testbed pool exhausted"
      | None -> false);
    let in_flight = 64 * workers in
    if
      !pulls
      > res.Campaign.cp_cases_run + res.Campaign.cp_screened_out + in_flight
    then
      Alcotest.failf "w%d: %d pulls for %d cases run and %d screened out"
        workers !pulls res.Campaign.cp_cases_run res.Campaign.cp_screened_out;
    res
  in
  check_results_equal "in-process vs 2 workers" (run 0) (run 2)

(* a fuzzer that hands out [n] cases, then [last ()] *)
let short_fuzzer ~name n last =
  let pulled = ref 0 in
  Campaign.make_fuzzer ~name ~seed:0 ~raw:None (fun () ->
      if !pulled = n then last ()
      else begin
        incr pulled;
        Some
          (Comfort.Testcase.make_parsed Comfort.Testcase.P_generated
             (Printf.sprintf "print(%d + 1);" !pulled))
      end)

(* a fuzzer that hands out five cases, then dies *)
let drained_fuzzer () =
  short_fuzzer ~name:"drained" 5 (fun () -> failwith "out of test cases")

let run_drained ?checkpoint () =
  Campaign.run ~testbeds:(Lazy.force testbeds) ~budget:10 ?checkpoint
    (drained_fuzzer ())

let fuzzer_exhaustion_aborts () =
  let res = run_drained () in
  Alcotest.(check bool) "aborted with a reason" true
    (match res.Campaign.cp_aborted with
    | Some r -> contains r "fuzzer exhausted"
    | None -> false);
  Alcotest.(check int) "the gathered cases still ran" 5
    res.Campaign.cp_cases_run

(* Quarantine empties the testbed pool after 3 of the drained fuzzer's
   5 cases. The draw stops there, before the fuzzer dies, so the report
   names the testbed pool and counts 3 cases, in-process and on forked
   workers alike, even where the pool had pulled the last two cases and
   the fuzzer's death ahead. *)
let drained_fuzzer_stops_at_pool_exhaustion () =
  List.iter
    (fun workers ->
      let res =
        Campaign.run ~testbeds:(Lazy.force testbeds) ~budget:10 ~workers
          ~faults:(plan_of_spec "seed=2;crash=1.0")
          (drained_fuzzer ())
      in
      Alcotest.(check int) "the pool was quarantined"
        (List.length (Lazy.force testbeds))
        (List.length res.Campaign.cp_quarantined);
      Alcotest.(check int) "cases up to the exhaustion ran" 3
        res.Campaign.cp_cases_run;
      Alcotest.(check (option string)) "the testbed pool's abort reason"
        (Some
           "testbed pool exhausted: quarantine left no mode group with two \
            live testbeds")
        res.Campaign.cp_aborted)
    [ 0; 2 ]

(* A fuzzer ends its stream by dying (an exception from the pull) or by
   running dry ([None]): either way every case it yielded is screened
   and runs, and the abort says which. *)
let fuzzer_dies_or_runs_dry () =
  List.iter
    (fun (last, reason) ->
      let res =
        Campaign.run ~testbeds:(Lazy.force testbeds) ~budget:10
          (short_fuzzer ~name:"short" 3 last)
      in
      Alcotest.(check int) "the 3 yielded cases ran" 3
        res.Campaign.cp_cases_run;
      Alcotest.(check (option string)) "the abort names the end" (Some reason)
        res.Campaign.cp_aborted)
    [
      ( (fun () -> failwith "out of test cases"),
        "fuzzer exhausted: Failure(\"out of test cases\")" );
      ((fun () -> None), "fuzzer exhausted: gathered 3 of 10 budgeted cases");
    ]

(* --- checkpoint / resume --- *)

let ckpt_path name = Filename.concat (Filename.get_temp_dir_name ()) name

(* The "consumed/budget" field of a checkpoint's CLI summary. *)
let progress st =
  List.find
    (fun w -> String.contains w '/')
    (String.split_on_char ' ' (Campaign.Checkpoint.describe st))

let checkpoint_load_rejects_garbage () =
  let path = ckpt_path "comfort-test-garbage.ckpt" in
  let oc = open_out_bin path in
  output_string oc "not a checkpoint\njunk";
  close_out oc;
  Alcotest.(check bool) "bad header rejected" true
    (Result.is_error (Campaign.Checkpoint.load path));
  (* a well-framed file behind the previous format's header line: v5
     states still carried the seeded-share and inline-cache tallies *)
  let oc = open_out_bin path in
  output_string oc "COMFORT-CKPT v5\n";
  output_string oc (Comfort.Ipc.encode ("Comfort", 300_000, 0, 0));
  close_out oc;
  (match Campaign.Checkpoint.load path with
  | Ok _ -> Alcotest.fail "v5 checkpoint accepted"
  | Error e ->
      Alcotest.(check bool) ("v5 refused: " ^ e) true
        (contains e "bad checkpoint header"));
  Sys.remove path;
  Alcotest.(check bool) "missing file rejected" true
    (Result.is_error (Campaign.Checkpoint.load path))

(* A well-framed checkpoint behind an older format's header line: the
   header check must refuse it before anything is unmarshalled. v4
   states still carried the per-layer switches; v6 states held
   tree-shaped quirk sets and a frozen supervisor copy; v7 states were a
   field-by-field copy of the driver record without its early end; v8
   states held two counter tallies where a v9 reader expects the vector
   of every registered counter; v11 states held the sizes of the draw's
   rounds and a testbed-pool exhaustion outside the cursor; v13 states
   carried an audit stride. *)
let checkpoint_load_rejects_old ~version payload () =
  let path = ckpt_path (Printf.sprintf "comfort-test-v%d.ckpt" version) in
  let oc = open_out_bin path in
  Printf.fprintf oc "COMFORT-CKPT v%d\n" version;
  output_string oc payload;
  close_out oc;
  let loaded =
    match Campaign.Checkpoint.load path with
    | r -> r
    | exception e -> Alcotest.failf "load raised %s" (Printexc.to_string e)
  in
  Sys.remove path;
  match loaded with
  | Ok _ -> Alcotest.failf "v%d checkpoint accepted" version
  | Error e ->
      Alcotest.(check bool) ("refused: " ^ e) true
        (contains e "bad checkpoint header")

let checkpoint_load_rejects_torn_file () =
  (* a real checkpoint cut off mid-Marshal — what a disk-full or a
     crash during a non-atomic copy would leave behind. [load] must
     return its typed error, not let a Marshal exception escape. *)
  let path = ckpt_path "comfort-test-torn.ckpt" in
  (try ignore (run_chaos ~checkpoint:(path, 5) ~halt_after:7 ()) with
  | Campaign.Halted _ -> ());
  let full = In_channel.with_open_bin path In_channel.input_all in
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full * 2 / 3));
  close_out oc;
  (match Campaign.Checkpoint.load path with
  | Ok _ -> Alcotest.fail "torn checkpoint accepted"
  | Error e ->
      Alcotest.(check bool) "typed corruption diagnostic" true
        (contains e "truncated" || contains e "corrupt"));
  Sys.remove path

(* Truncations and byte flips of a real checkpoint: [load] refuses the
   file with an [Error], or (when the damage left it byte-identical)
   returns a state equal to the original — it never raises and never
   hands back a different state. *)
let checkpoint_damage_property =
  let original =
    lazy
      (let path = ckpt_path "comfort-test-damage-src.ckpt" in
       (try ignore (run_chaos ~checkpoint:(path, 5) ~halt_after:7 ()) with
       | Campaign.Halted _ -> ());
       let bytes = In_channel.with_open_bin path In_channel.input_all in
       let st =
         match Campaign.Checkpoint.load path with
         | Ok st -> st
         | Error e -> failwith ("checkpoint unreadable: " ^ e)
       in
       Sys.remove path;
       (bytes, Marshal.to_string st []))
  in
  let gen_damage =
    (* positions and masks as fractions, scaled to the file when applied *)
    QCheck2.Gen.(
      pair bool
        (list_size (1 -- 3) (pair (float_bound_exclusive 1.0) (1 -- 255))))
  in
  let apply (truncate, edits) bytes =
    let n = String.length bytes in
    let at f = min (n - 1) (int_of_float (f *. float_of_int n)) in
    match edits with
    | (f, _) :: _ when truncate -> String.sub bytes 0 (at f)
    | _ ->
        let b = Bytes.of_string bytes in
        List.iter
          (fun (f, mask) ->
            let i = at f in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask)))
          edits;
        Bytes.to_string b
  in
  QCheck2.Test.make ~count:300 ~name:"checkpoint: damaged files are refused"
    gen_damage (fun damage ->
      let bytes, marshalled = Lazy.force original in
      let path = ckpt_path "comfort-test-damaged.ckpt" in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (apply damage bytes));
      let r = Campaign.Checkpoint.load path in
      Sys.remove path;
      match r with
      | Error _ -> true
      | Ok st -> Marshal.to_string st [] = marshalled)

let halt_and_resume_matches_uninterrupted () =
  let path = ckpt_path "comfort-test-resume.ckpt" in
  let uninterrupted = run_chaos () in
  (* the same campaign, killed (deterministically) after 7 cases *)
  (match run_chaos ~checkpoint:(path, 5) ~halt_after:7 () with
  | _ -> Alcotest.fail "halt_after must raise"
  | exception Campaign.Halted { halted_at; halted_checkpoint } ->
      Alcotest.(check int) "halted where asked" 7 halted_at;
      Alcotest.(check (option string)) "checkpoint written" (Some path)
        halted_checkpoint);
  (match Campaign.Checkpoint.load path with
  | Error e -> Alcotest.failf "checkpoint unreadable: %s" e
  | Ok st ->
      Alcotest.(check string) "snapshot is at the halt point, budget stored"
        "7/20" (progress st);
      let resumed = Campaign.resume st (chaos_fuzzer ()) in
      check_results_equal "resumed vs uninterrupted" uninterrupted resumed);
  (* resuming the finished campaign's final checkpoint is a no-op that
     reproduces the result *)
  (match run_chaos ~checkpoint:(path, 1000) () with
  | res -> (
      match Campaign.Checkpoint.load path with
      | Error e -> Alcotest.failf "final checkpoint unreadable: %s" e
      | Ok st ->
          Alcotest.(check string) "final checkpoint is complete" "20/20"
            (progress st);
          check_results_equal "re-finished" res
            (Campaign.resume st (chaos_fuzzer ()))));
  Sys.remove path

let resume_can_halt_again () =
  (* two kills in a row: 4 cases, then 11, then to the end — still equal *)
  let path = ckpt_path "comfort-test-double-resume.ckpt" in
  let uninterrupted = run_chaos () in
  (try ignore (run_chaos ~checkpoint:(path, 3) ~halt_after:4 ()) with
  | Campaign.Halted _ -> ());
  let st1 =
    match Campaign.Checkpoint.load path with
    | Ok st -> st
    | Error e -> Alcotest.failf "first checkpoint: %s" e
  in
  (try
     ignore
       (Campaign.resume ~checkpoint:(path, 3) ~halt_after:11 st1
          (chaos_fuzzer ()))
   with
  | Campaign.Halted _ -> ());
  let st2 =
    match Campaign.Checkpoint.load path with
    | Ok st -> st
    | Error e -> Alcotest.failf "second checkpoint: %s" e
  in
  Alcotest.(check string) "second snapshot is later" "11/20" (progress st2);
  check_results_equal "twice-killed vs uninterrupted" uninterrupted
    (Campaign.resume st2 (chaos_fuzzer ()));
  Sys.remove path

(* A checkpoint stores the gather's cursor, not the drawn cases, so at
   the same consume point its size does not depend on the budget. One
   testbed cannot deviate from itself, so the checkpoint holds no
   discovery either, whose case id could take a different number of
   bytes in the two runs. *)
let checkpoint_size_independent_of_budget () =
  let size budget =
    let path = ckpt_path (Printf.sprintf "comfort-test-size-%d.ckpt" budget) in
    (match
       Campaign.run
         ~testbeds:[ List.hd (Lazy.force testbeds) ]
         ~budget ~checkpoint:(path, 10) ~halt_after:30
         (Campaign.comfort_fuzzer ~seed:5 ())
     with
    | _ -> Alcotest.fail "halt_after must raise"
    | exception Campaign.Halted _ -> ());
    let n = (Unix.stat path).Unix.st_size in
    Sys.remove path;
    n
  in
  Alcotest.(check int) "same size at budgets 500 and 2000" (size 500)
    (size 2000)

(* The checkpoint names its fuzzer and seed; resuming with another
   fuzzer would draw other cases, so it is refused. *)
let resume_refuses_another_fuzzer () =
  let path = ckpt_path "comfort-test-resume-other.ckpt" in
  (try ignore (run_chaos ~checkpoint:(path, 5) ~halt_after:7 ()) with
  | Campaign.Halted _ -> ());
  let st =
    match Campaign.Checkpoint.load path with
    | Ok st -> st
    | Error e -> Alcotest.failf "checkpoint unreadable: %s" e
  in
  Sys.remove path;
  Alcotest.(check string) "fuzzer stored" "Comfort"
    (Campaign.Checkpoint.fuzzer st);
  Alcotest.(check int) "seed stored" 23 (Campaign.Checkpoint.seed st);
  match Campaign.resume st (Campaign.comfort_fuzzer ~seed:24 ()) with
  | _ -> Alcotest.fail "a fuzzer with another seed was accepted"
  | exception Invalid_argument _ -> ()

(* A campaign that ended early stores its early end: resuming its final
   checkpoint runs nothing and reproduces the report, abort reason and
   case count included, in-process and on forked workers alike. *)
let resume_of_final_checkpoint name
    (run : ?checkpoint:string * int -> unit -> Campaign.result) fuzzer () =
  let path = ckpt_path name in
  let res = run ~checkpoint:(path, 1000) () in
  Alcotest.(check bool) "campaign ended early" true
    (res.Campaign.cp_aborted <> None);
  let load () =
    match Campaign.Checkpoint.load path with
    | Ok st -> st
    | Error e -> Alcotest.failf "final checkpoint unreadable: %s" e
  in
  check_results_equal "resumed in-process" res
    (Campaign.resume ~workers:0 (load ()) (fuzzer ()));
  check_results_equal "resumed on 2 workers" res
    (Campaign.resume ~workers:2 (load ()) (fuzzer ()));
  Sys.remove path

let suite =
  [
    Helpers.case "fault plan: spec validation" plan_spec_validation;
    Helpers.case "fault plan: COMFORT_FAULTS parsing" plan_from_env;
    Helpers.case "fault plan: draws are pure and non-degenerate" plan_draw_is_deterministic;
    Helpers.case "fault plan: targets filter" plan_targets_filter;
    Helpers.case "execute: retry then succeed, backoff accounted" execute_retry_then_succeed;
    Helpers.case "execute: persistent fault exhausts the budget" execute_gives_up_on_persistent_fault;
    Helpers.case "execute: real exceptions retried as faults" execute_retries_real_exceptions;
    Helpers.case "execute: slow start vs watchdog" execute_slow_start_vs_watchdog;
    Helpers.case "execute: injected faults cannot produce values" injected_faults_never_return_values;
    Helpers.case "quarantine: threshold, reset, marshal round trip" quarantine_after_consecutive_faults;
    Helpers.case "chaos campaign: quarantine, degradation, no leaks" chaos_campaign_quarantines_and_stays_clean;
    Helpers.case "chaos campaign: workers-invariant" chaos_campaign_is_workers_invariant;
    Helpers.case "in-process campaign: worker exception skips the case" in_process_worker_exception_skips_case;
    Helpers.case "chaos campaign: pool exhaustion aborts" all_testbeds_quarantined_aborts;
    Helpers.case "chaos campaign: pool exhaustion stops the draw"
      pool_exhaustion_stops_the_draw;
    Helpers.case "campaign: fuzzer exhaustion aborts gracefully" fuzzer_exhaustion_aborts;
    Helpers.case "campaign: a drained fuzzer stops at testbed-pool exhaustion"
      drained_fuzzer_stops_at_pool_exhaustion;
    Helpers.case
      "campaign: a fuzzer dying mid-stream or running dry keeps its yielded \
       cases"
      fuzzer_dies_or_runs_dry;
    Helpers.case "checkpoint: garbage rejected" checkpoint_load_rejects_garbage;
    Helpers.case "checkpoint: v4 header refused"
      (checkpoint_load_rejects_old ~version:4
         (Comfort.Ipc.encode ("Comfort", 300_000, true, Some true)));
    Helpers.case "checkpoint: v6 header refused"
      (checkpoint_load_rejects_old ~version:6
         (Comfort.Ipc.encode ("Comfort", 300_000, [ 1; 2 ])));
    Helpers.case "checkpoint: v7 header refused"
      (checkpoint_load_rejects_old ~version:7
         (Comfort.Ipc.encode ("Comfort", 300_000, None)));
    Helpers.case "checkpoint: v8 header refused"
      (checkpoint_load_rejects_old ~version:8
         (Comfort.Ipc.encode ("Comfort", 300_000, 0, 0)));
    Helpers.case "checkpoint: v9 header refused"
      (checkpoint_load_rejects_old ~version:9
         (Comfort.Ipc.encode ("Comfort", 300_000, [| 0; 0 |])));
    Helpers.case "checkpoint: v10 header refused"
      (checkpoint_load_rejects_old ~version:10
         (Comfort.Ipc.encode ("Comfort", [ "print(1);" ], 0)));
    Helpers.case "checkpoint: v11 header refused"
      (checkpoint_load_rejects_old ~version:11
         (Comfort.Ipc.encode ("Comfort", 5, [ 300 ], false, false)));
    Helpers.case "checkpoint: v12 header refused"
      (checkpoint_load_rejects_old ~version:12
         (Comfort.Ipc.encode ("Comfort", 5, [| 0 |], false)));
    Helpers.case "checkpoint: v13 header refused"
      (checkpoint_load_rejects_old ~version:13
         (Comfort.Ipc.encode ("Comfort", 5, 200, 3)));
    Helpers.case "checkpoint: torn file rejected" checkpoint_load_rejects_torn_file;
    Helpers.case "checkpoint: halt + resume = uninterrupted" halt_and_resume_matches_uninterrupted;
    Helpers.case "checkpoint: resume can halt and resume again" resume_can_halt_again;
    Helpers.case "checkpoint: size independent of the budget"
      checkpoint_size_independent_of_budget;
    Helpers.case "checkpoint: resume refuses another fuzzer"
      resume_refuses_another_fuzzer;
    Helpers.case "checkpoint: resuming a pool-exhausted campaign is a no-op"
      (resume_of_final_checkpoint "comfort-test-pool-exhausted.ckpt"
         run_pool_exhausted chaos_fuzzer);
    Helpers.case "checkpoint: resuming a drained-fuzzer campaign is a no-op"
      (resume_of_final_checkpoint "comfort-test-drained.ckpt" run_drained
         drained_fuzzer);
    QCheck_alcotest.to_alcotest checkpoint_damage_property;
  ]
