(* The whole-pipeline campaign profiler (Run.Stage + Metrics.profile).

   The load-bearing invariant: in an in-process campaign the pipeline
   stages are disjoint (outermost-wins re-entrancy), so their sum is a
   no-double-counting lower bound on the measured campaign wall clock —
   for plain, reducing, checkpointing and supervised/chaos campaigns
   alike. *)

open Comfort
module Stage = Jsinterp.Run.Stage

let stage_names rows = List.map (fun (n, _, _) -> n) rows
let sum_ns rows = List.fold_left (fun a (_, ns, _) -> a + ns) 0 rows

let pipeline_order = [ "generate"; "screen"; "sweep"; "vote"; "attr"; "reduce"; "fold" ]
let substage_order = [ "parse"; "compile"; "realm"; "exec" ]

(* Enable the process-wide profiler for [f], reset at entry, disable on
   the way out (the counters stay readable), and return [f]'s value with
   the measured wall clock. Tests in this binary share the Stage state,
   so hygiene here keeps the suites independent. *)
let profiled f =
  Stage.enabled := true;
  Stage.reset ();
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  Stage.enabled := false;
  (v, wall_ns)

let check_rows_shape label rows expected_names =
  Alcotest.(check (list string)) (label ^ ": names in campaign order")
    expected_names (stage_names rows);
  List.iter
    (fun (n, ns, bytes) ->
      Alcotest.(check bool) (Printf.sprintf "%s: %s ns >= 0" label n) true (ns >= 0);
      Alcotest.(check bool) (Printf.sprintf "%s: %s bytes >= 0" label n) true (bytes >= 0))
    rows

(* A disabled probe must record nothing even while campaigns run. *)
let disabled_records_nothing () =
  Stage.enabled := false;
  Stage.reset ();
  let _ = Campaign.run ~budget:30 ~workers:0 (Campaign.comfort_fuzzer ~seed:5 ()) in
  Alcotest.(check int) "pipeline untouched" 0 (sum_ns (Stage.pipeline ()));
  Alcotest.(check int) "substages untouched" 0 (sum_ns (Stage.substages ()))

(* In-process, with reduction and periodic checkpoint saves: every stage
   of the pipeline is exercised, and the disjoint sum stays under wall. *)
let in_process_sum_bounded_by_wall () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "comfort-test-profiler.ckpt"
  in
  let res, wall_ns =
    profiled (fun () ->
        Campaign.run ~budget:300 ~workers:0 ~reduce:true ~checkpoint:(path, 100)
          (Campaign.comfort_fuzzer ~seed:11 ()))
  in
  if Sys.file_exists path then Sys.remove path;
  Alcotest.(check int) "budget honoured" 300 res.Campaign.cp_cases_run;
  let rows = Stage.pipeline () in
  check_rows_shape "in-process" rows pipeline_order;
  check_rows_shape "in-process substages" (Stage.substages ()) substage_order;
  Alcotest.(check bool) "disjoint stage sum <= wall" true (sum_ns rows <= wall_ns);
  (* substages nest inside the sweep stage, so they are bounded too *)
  Alcotest.(check bool) "substage sum <= wall" true
    (sum_ns (Stage.substages ()) <= wall_ns);
  let pos name =
    match List.assoc_opt name (List.map (fun (n, ns, _) -> (n, ns)) rows) with
    | Some ns -> ns > 0
    | None -> false
  in
  Alcotest.(check bool) "generate recorded" true (pos "generate");
  Alcotest.(check bool) "screen recorded" true (pos "screen");
  Alcotest.(check bool) "sweep recorded" true (pos "sweep");
  Alcotest.(check bool) "vote recorded" true (pos "vote");
  (* Metrics.profile folds the same counters: accounted = pipeline sum,
     residual under the tentpole's 10%-of-wall ceiling (generous margin
     for a short, noisy test campaign: 50%) *)
  let p = Metrics.profile ~wall_ns in
  Alcotest.(check int) "profile accounted = stage sum" (sum_ns rows)
    p.Metrics.pr_accounted_ns;
  Alcotest.(check bool) "most of wall accounted" true
    (p.Metrics.pr_unaccounted_pct < 50.0);
  Alcotest.(check bool) "profile renders" true
    (String.length (Metrics.profile_to_string p) > 0)

(* Supervised/chaos campaigns route executions through the supervisor's
   retry/quarantine machinery; stage probes there must not double-count
   either. *)
let supervised_sum_bounded_by_wall () =
  let plan =
    match
      Supervisor.Faultplan.of_spec
        "seed=7;targets=Hermes|Rhino;crash=0.6;hang=0.2;flaky=0.3"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let _, wall_ns =
    profiled (fun () ->
        Campaign.run ~budget:60 ~workers:0 ~faults:plan
          (Campaign.comfort_fuzzer ~seed:23 ()))
  in
  let rows = Stage.pipeline () in
  check_rows_shape "supervised" rows pipeline_order;
  Alcotest.(check bool) "supervised stage sum <= wall" true
    (sum_ns rows <= wall_ns);
  Alcotest.(check bool) "supervised substage sum <= wall" true
    (sum_ns (Stage.substages ()) <= wall_ns)

let reset_clears () =
  (* the previous tests left counters populated *)
  Stage.reset ();
  Alcotest.(check int) "pipeline cleared" 0 (sum_ns (Stage.pipeline ()));
  Alcotest.(check int) "substages cleared" 0 (sum_ns (Stage.substages ()))

let suite =
  [
    Alcotest.test_case "disabled probe records nothing" `Quick
      disabled_records_nothing;
    Alcotest.test_case "jobs=1 stage sum bounded by wall" `Slow
      in_process_sum_bounded_by_wall;
    Alcotest.test_case "supervised stage sum bounded by wall" `Quick
      supervised_sum_bounded_by_wall;
    Alcotest.test_case "reset clears all counters" `Quick reset_clears;
  ]
