(* Test-case quality metrics (paper §5.3.3, Fig. 9).

   - syntax passing rate: fraction of raw fuzzer output accepted by the
     JSHint-substitute parser;
   - statement / branch / function coverage: average per-program ratio of
     locations executed when the (syntactically valid) test case runs on
     the reference engine, measured with the interpreter's Istanbul-style
     instrumentation. *)

type quality = {
  q_fuzzer : string;
  q_samples : int;
  q_validity : float;
  q_stmt_cov : float;
  q_branch_cov : float;
  q_func_cov : float;
}

(* The per-case fuel of the quality measurements: each valid case runs
   once on the reference engine. *)
let quality_fuel = 200_000

let measure (fz : Campaign.fuzzer) ~(n : int) : quality =
  let cases = fz.Campaign.fz_batch n in
  let valid = List.filter (fun c -> c.Testcase.tc_syntax_valid) cases in
  (* passing rate over the generator's raw output where the fuzzer exposes
     it (generative fuzzers); over the emitted cases otherwise *)
  let validity =
    match fz.Campaign.fz_raw with
    | Some raw ->
        let samples = raw n in
        Float.of_int
          (List.length (List.filter Jsparse.Parser.is_valid samples))
        /. Float.of_int (max 1 (List.length samples))
    | None ->
        Float.of_int (List.length valid)
        /. Float.of_int (max 1 (List.length cases))
  in
  let covs =
    List.filter_map
      (fun (tc : Testcase.t) ->
        let r =
          Jsinterp.Run.run ~coverage:true ~fuel:quality_fuel
            tc.Testcase.tc_source
        in
        r.Jsinterp.Run.r_coverage)
      valid
  in
  (* aggregate over location totals rather than averaging per-program
     ratios, so programs without any branch do not count as 100% branch
     coverage *)
  let agg fc ft =
    let covered = List.fold_left (fun a c -> a + fc c) 0 covs in
    let total = List.fold_left (fun a c -> a + ft c) 0 covs in
    if total = 0 then 0.0 else Float.of_int covered /. Float.of_int total
  in
  {
    q_fuzzer = fz.Campaign.fz_name;
    q_samples = List.length cases;
    q_validity = validity;
    q_stmt_cov =
      agg (fun c -> c.Jsinterp.Coverage.stmt_covered)
        (fun c -> c.Jsinterp.Coverage.stmt_total);
    q_branch_cov =
      agg (fun c -> c.Jsinterp.Coverage.branch_covered)
        (fun c -> c.Jsinterp.Coverage.branch_total);
    q_func_cov =
      agg (fun c -> c.Jsinterp.Coverage.func_covered)
        (fun c -> c.Jsinterp.Coverage.func_total);
  }

(* Share of valid generated programs that still raise a runtime exception
   (the paper reports ~18% for Comfort). *)
let runtime_exception_rate (fz : Campaign.fuzzer) ~(n : int) : float =
  let cases = fz.Campaign.fz_batch n in
  let valid =
    List.filter (fun (c : Testcase.t) -> c.Testcase.tc_syntax_valid) cases
  in
  match valid with
  | [] -> 0.0
  | _ ->
      let throwing =
        List.filter
          (fun (tc : Testcase.t) ->
            let r = Jsinterp.Run.run ~fuel:quality_fuel tc.Testcase.tc_source in
            match r.Jsinterp.Run.r_status with
            | Jsinterp.Run.Sts_uncaught _ -> true
            | _ -> false)
          valid
      in
      Float.of_int (List.length throwing) /. Float.of_int (List.length valid)

(* --- the campaign pipeline profile (Run.Stage, folded for reporting) --- *)

type stage_row = { st_name : string; st_ns : int; st_bytes : int }

type profile = {
  pr_wall_ns : int;
  pr_stages : stage_row list;      (* disjoint pipeline layer, campaign order *)
  pr_substages : stage_row list;   (* interpreter layer, nested inside stages *)
  pr_accounted_ns : int;           (* sum of the pipeline layer *)
  pr_unaccounted_pct : float;      (* (wall - accounted) / wall, percent *)
}

(* Fold the process-wide [Run.Stage] counters against a measured campaign
   wall clock. Only meaningful when [Run.Stage.enabled] was set for
   exactly the timed region and the counters were [reset] at its start. *)
let profile ~(wall_ns : int) : profile =
  let row (n, ns, bytes) = { st_name = n; st_ns = ns; st_bytes = bytes } in
  let stages = List.map row (Jsinterp.Run.Stage.pipeline ()) in
  let substages = List.map row (Jsinterp.Run.Stage.substages ()) in
  let accounted = List.fold_left (fun a r -> a + r.st_ns) 0 stages in
  let unaccounted_pct =
    if wall_ns <= 0 then 0.0
    else
      Float.max 0.0
        (100.0 *. Float.of_int (wall_ns - accounted) /. Float.of_int wall_ns)
  in
  {
    pr_wall_ns = wall_ns;
    pr_stages = stages;
    pr_substages = substages;
    pr_accounted_ns = accounted;
    pr_unaccounted_pct = unaccounted_pct;
  }

let profile_to_string (p : profile) : string =
  let b = Buffer.create 512 in
  let ms ns = Float.of_int ns /. 1e6 in
  let mb bytes = Float.of_int bytes /. (1024.0 *. 1024.0) in
  let pct ns =
    if p.pr_wall_ns <= 0 then 0.0
    else 100.0 *. Float.of_int ns /. Float.of_int p.pr_wall_ns
  in
  Buffer.add_string b
    (Printf.sprintf "campaign wall        %8.1f ms\n" (ms p.pr_wall_ns));
  Buffer.add_string b "pipeline stages (disjoint):\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "  %-10s %8.1f ms  %5.1f%%  %8.1f MB alloc\n"
           r.st_name (ms r.st_ns) (pct r.st_ns) (mb r.st_bytes)))
    p.pr_stages;
  Buffer.add_string b
    (Printf.sprintf "  %-10s %8.1f ms  %5.1f%%\n" "accounted"
       (ms p.pr_accounted_ns) (pct p.pr_accounted_ns));
  Buffer.add_string b
    (Printf.sprintf "  %-10s %8.1f ms  %5.1f%%\n" "residual"
       (ms (max 0 (p.pr_wall_ns - p.pr_accounted_ns)))
       p.pr_unaccounted_pct);
  Buffer.add_string b "interpreter substages (nested inside stages):\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "  %-10s %8.1f ms  %5.1f%%  %8.1f MB alloc\n"
           r.st_name (ms r.st_ns) (pct r.st_ns) (mb r.st_bytes)))
    p.pr_substages;
  Buffer.contents b
