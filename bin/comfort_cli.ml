(* The `comfort` command-line tool.

     comfort generate --count 5            sample test programs from the LM
     comfort mutate FILE                   ECMA-262-guided mutants of a file
     comfort run FILE [--engine E --version V --strict]
                                           run JS on a simulated engine
     comfort difftest FILE                 differential-test one file
     comfort fuzz --budget N [--fuzzer F --feedback]
                                           run a fuzzing campaign
     comfort analyze FILE | --generate N   static analysis: scope, early
                                           errors, lint, screening verdict
     comfort export --budget N [--dir D]   fuzz and emit Test262-style tests
     comfort reduce FILE --engine E --version V
                                           reduce a bug-exposing test case
     comfort spec [API]                    dump extracted spec rules
     comfort engines                       list the engine registry *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* [--workers 0] (the default) defers to COMFORT_WORKERS, else in-process.
   Campaign results are byte-identical at any worker count. *)
let workers_arg =
  Arg.(
    value & opt int 0
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Process-isolated campaign workers: fork $(docv) worker \
           processes and run every per-case sweep in one of them, so an \
           execution that segfaults, hangs or is hard-killed (the \
           $(b,worker_kill) fault class) costs one worker, never the \
           campaign. 0 reads $(b,COMFORT_WORKERS) from the environment \
           (default: in-process). Results are identical at any worker \
           count.")

let resolve_workers n =
  if n <= 0 then Comfort.Coordinator.default_workers () else n

let engine_conv =
  let parse s =
    match
      List.find_opt
        (fun e -> String.lowercase_ascii (Engines.Registry.engine_name e)
                  = String.lowercase_ascii s)
        Engines.Registry.all_engines
    with
    | Some e -> Ok e
    | None -> Error (`Msg ("unknown engine " ^ s))
  in
  let print fmt e = Format.pp_print_string fmt (Engines.Registry.engine_name e) in
  Arg.conv (parse, print)

(* --- generate --- *)

let generate count seed =
  let g = Comfort.Generator.create ~seed () in
  List.iteri
    (fun i (tc : Comfort.Testcase.t) ->
      Printf.printf "// sample %d (syntax %s)\n%s\n" (i + 1)
        (if tc.Comfort.Testcase.tc_syntax_valid then "valid" else "INVALID")
        tc.Comfort.Testcase.tc_source)
    (Comfort.Generator.generate g ~n:count)

let generate_cmd =
  let count =
    Arg.(value & opt int 3 & info [ "count"; "n" ] ~doc:"Number of programs.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.") in
  Cmd.v (Cmd.info "generate" ~doc:"Sample JS test programs from the language model")
    Term.(const generate $ count $ seed)

(* --- mutate --- *)

let mutate file seed =
  let src = read_file file in
  let dg = Comfort.Datagen.create ~seed () in
  let ms = Comfort.Datagen.mutants_of_program dg src in
  if ms = [] then print_endline "// no ECMA-262-guided mutants (no known API call sites)"
  else
    List.iteri
      (fun i (m : Comfort.Datagen.mutant) ->
        Printf.printf "// mutant %d: %s (%s)\n%s\n" (i + 1)
          (if m.Comfort.Datagen.m_api = "" then "(driver)" else m.Comfort.Datagen.m_api)
          (if m.Comfort.Datagen.m_guided then "boundary-guided" else "random data")
          m.Comfort.Datagen.m_source)
      ms

let mutate_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let seed = Arg.(value & opt int 2 & info [ "seed" ] ~doc:"RNG seed.") in
  Cmd.v (Cmd.info "mutate" ~doc:"Apply ECMA-262-guided test-data generation to a program")
    Term.(const mutate $ file $ seed)

(* --- run --- *)

let run_js file engine version strict =
  let src = read_file file in
  let result =
    match engine with
    | None -> Engines.Engine.run_reference ~strict src
    | Some e -> (
        let cfg =
          match version with
          | Some v -> Engines.Registry.find_config ~engine:e ~version:v
          | None -> Some (Engines.Registry.latest e)
        in
        match cfg with
        | None ->
            Printf.eprintf "unknown version; available: %s\n"
              (String.concat ", "
                 (List.map
                    (fun c -> c.Engines.Registry.cfg_version)
                    (Engines.Registry.configs_of e)));
            exit 1
        | Some cfg ->
            Engines.Engine.run
              {
                Engines.Engine.tb_config = cfg;
                tb_mode = (if strict then Engines.Engine.Strict else Engines.Engine.Normal);
              }
              src)
  in
  print_string result.Jsinterp.Run.r_output;
  (match result.Jsinterp.Run.r_parse_error with
  | Some e -> Printf.eprintf "SyntaxError: %s\n" e
  | None -> ());
  (match result.Jsinterp.Run.r_status with
  | Jsinterp.Run.Sts_normal -> ()
  | s -> Printf.eprintf "%s\n" (Jsinterp.Run.status_to_string s));
  if not (Jsinterp.Quirk.Set.is_empty result.Jsinterp.Run.r_fired) then
    Printf.eprintf "[quirks fired: %s]\n"
      (String.concat ", "
         (List.map Jsinterp.Quirk.to_string
            (Jsinterp.Quirk.Set.elements result.Jsinterp.Run.r_fired)))

let run_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let engine =
    Arg.(value & opt (some engine_conv) None & info [ "engine" ] ~doc:"Simulated engine.")
  in
  let version =
    Arg.(value & opt (some string) None & info [ "version" ] ~doc:"Engine version.")
  in
  let strict = Arg.(value & flag & info [ "strict" ] ~doc:"Strict mode testbed.") in
  Cmd.v (Cmd.info "run" ~doc:"Run a JS file on a simulated engine")
    Term.(const run_js $ file $ engine $ version $ strict)

(* --- difftest --- *)

let difftest file =
  let src = read_file file in
  let tc = Comfort.Testcase.make src in
  let report =
    Comfort.Difftest.run_case (Engines.Engine.latest_testbeds ()) tc
  in
  Printf.printf "testbeds run: %d\n" report.Comfort.Difftest.cr_tested;
  if report.Comfort.Difftest.cr_deviations = [] then
    print_endline "no deviations: all engines agree"
  else
    List.iter
      (fun (d : Comfort.Difftest.deviation) ->
        Printf.printf "%s deviates [%s]\n  actual:   %s\n  expected: %s\n"
          (Engines.Engine.testbed_id d.Comfort.Difftest.d_testbed)
          (Comfort.Difftest.deviation_kind_to_string d.Comfort.Difftest.d_kind)
          d.Comfort.Difftest.d_actual d.Comfort.Difftest.d_expected;
        Jsinterp.Quirk.Set.iter
          (fun q -> Printf.printf "  ground-truth bug: %s\n" (Jsinterp.Quirk.to_string q))
          d.Comfort.Difftest.d_fired)
      report.Comfort.Difftest.cr_deviations

let difftest_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "difftest" ~doc:"Differential-test one file across the latest engines")
    Term.(const difftest $ file)

(* --- fuzz --- *)

let fuzz budget fuzzer_name seed feedback workers audit faults
    checkpoint checkpoint_every resume halt_after profile =
  let workers = resolve_workers workers in
  (* a resumed campaign runs the parameters stored in its checkpoint;
     options that would silently lose to them are usage errors *)
  if Option.is_some resume
     && (budget, fuzzer_name, seed, faults) <> (None, None, None, None)
  then begin
    prerr_endline
      "--resume restores the campaign from its checkpoint: it cannot be \
       combined with --budget/--fuzzer/--seed/--faults";
    exit 2
  end;
  let budget = Option.value budget ~default:1000 in
  let fuzzer_name = Option.value fuzzer_name ~default:"comfort" in
  let seed = Option.value seed ~default:7 in
  let plan =
    match faults with
    | None -> (
        (* resolve COMFORT_FAULTS here so a malformed spec is a clean
           diagnostic, not an uncaught exception out of Campaign.run *)
        try Comfort.Supervisor.Faultplan.from_env ()
        with Invalid_argument msg ->
          Printf.eprintf "bad %s\n" msg;
          exit 2)
    | Some spec -> (
        match Comfort.Supervisor.Faultplan.of_spec spec with
        | Ok p -> Some p
        | Error e ->
            Printf.eprintf "bad --faults spec: %s\n" e;
            exit 2)
  in
  let checkpoint =
    Option.map (fun path -> (path, max 1 checkpoint_every)) checkpoint
  in
  if
    feedback
    && (Option.is_some plan || Option.is_some resume
       || Option.is_some checkpoint || Option.is_some halt_after
       || workers > 0)
  then begin
    Printf.eprintf
      "--feedback cannot be combined with --faults/--checkpoint/--resume/\
       --halt-after/--workers\n";
    exit 2
  end;
  (* the audit cross-checks unsupervised sweeps of a fresh campaign: a
     resumed one runs the audit stride stored in its checkpoint *)
  if audit > 0 && (Option.is_some plan || feedback || Option.is_some resume)
  then begin
    Printf.eprintf
      "--audit cannot be combined with --faults (or COMFORT_FAULTS)/\
       --feedback/--resume\n";
    exit 2
  end;
  let counts0 = Cutil.Counter.snapshot () in
  let respawns0 = Comfort.Coordinator.stat_respawns () in
  let kills0 = Comfort.Coordinator.stat_kills () in
  let hangs0 = Comfort.Coordinator.stat_hangs () in
  if profile then begin
    Jsinterp.Run.Stage.enabled := true;
    Jsinterp.Run.Stage.reset ()
  end;
  let t0 = Unix.gettimeofday () in
  let res =
    try
      match resume with
      | Some path -> (
          match Comfort.Campaign.Checkpoint.load path with
          | Error e ->
              Printf.eprintf "cannot resume from %s: %s\n" path e;
              exit 2
          | Ok st ->
              Printf.printf "resuming %s\n"
                (Comfort.Campaign.Checkpoint.describe st);
              Comfort.Campaign.resume ~workers ?checkpoint
                ?halt_after st)
      | None -> (
          (* constructing the fuzzer forces the spec database and the LM
             model — real generation cost, attributed to the generate
             stage so the profile's residual only holds true unknowns *)
          let fz =
            Jsinterp.Run.Stage.time Jsinterp.Run.Stage.generate (fun () ->
                match String.lowercase_ascii fuzzer_name with
                | "comfort" -> Comfort.Campaign.comfort_fuzzer ~seed ()
                | "deepsmith" -> Baselines.Fuzzers.deepsmith ~seed ()
                | "fuzzilli" -> Baselines.Fuzzers.fuzzilli ~seed ()
                | "codealchemist" -> Baselines.Fuzzers.codealchemist ~seed ()
                | "die" -> Baselines.Fuzzers.die ~seed ()
                | "montage" -> Baselines.Fuzzers.montage ~seed ()
                | other ->
                    Printf.eprintf "unknown fuzzer %s\n" other;
                    exit 1)
          in
          if feedback then
            let t = Comfort.Feedback.create fz in
            Comfort.Feedback.run_rounds ~rounds:4
              ~budget_per_round:(max 1 (budget / 4))
              t
          else
            Comfort.Campaign.run ~budget ~workers ~audit ?faults:plan
              ?checkpoint ?halt_after fz)
    with
    | Comfort.Campaign.Halted { halted_at; halted_checkpoint } ->
        Printf.printf "campaign halted after %d cases%s\n" halted_at
          (match halted_checkpoint with
          | Some p -> Printf.sprintf "; resume with --resume %s" p
          | None -> " (no --checkpoint configured; progress discarded)");
        exit 0
    | Comfort.Difftest.Audit_mismatch msg ->
        Printf.eprintf "audit failed: %s\n" msg;
        exit 1
    | Comfort.Campaign.Interrupted { int_signal; int_at; int_checkpoint } ->
        (* operator kill: the worker pool is already torn down and a
           final checkpoint written; 130 is the conventional
           killed-by-signal exit *)
        Printf.eprintf "campaign interrupted by %s after %d cases%s\n"
          int_signal int_at
          (match int_checkpoint with
          | Some p -> Printf.sprintf "; resume with --resume %s" p
          | None -> " (no --checkpoint configured; progress discarded)");
        exit 130
  in
  (* robustness telemetry goes to stderr so stdout stays byte-comparable
     across worker counts (the CI chaos jobs diff it) *)
  if workers > 0 then begin
    let r = Comfort.Coordinator.stat_respawns () - respawns0 in
    let k = Comfort.Coordinator.stat_kills () - kills0 in
    let h = Comfort.Coordinator.stat_hangs () - hangs0 in
    if Comfort.Coordinator.available () then
      Printf.eprintf
        "process isolation: %d workers, %d respawns (%d hard-kills, %d \
         watchdog reaps)\n"
        workers r k h
    else
      Printf.eprintf
        "process isolation unavailable (no fork); ran in-process\n"
  end;
  let wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  Printf.printf "fuzzer: %s\ncases: %d\nunique bugs: %d\nrepeats filtered: %d\n"
    res.Comfort.Campaign.cp_fuzzer res.Comfort.Campaign.cp_cases_run
    (List.length res.Comfort.Campaign.cp_discoveries)
    res.Comfort.Campaign.cp_filtered_repeats;
  Printf.printf "screened out: %d (repaired %d)\n"
    res.Comfort.Campaign.cp_screened_out res.Comfort.Campaign.cp_repaired;
  if res.Comfort.Campaign.cp_specialized > 0 then
    Printf.printf "compilations: %d (COW clones %d)\n"
      res.Comfort.Campaign.cp_specialized res.Comfort.Campaign.cp_cow_clones;
  List.iter
    (fun (reason, n) -> Printf.printf "  %-35s %d\n" reason n)
    res.Comfort.Campaign.cp_screen_reasons;
  (* supervision only makes noise when it did something (or was asked to) *)
  let sup_rows = Comfort.Report.supervision_summary res in
  if Option.is_some plan || Option.is_some resume
     || List.exists (fun (_, n) -> n <> 0) sup_rows
  then begin
    print_endline "supervision:";
    List.iter (fun (label, n) -> Printf.printf "  %-35s %d\n" label n) sup_rows
  end;
  List.iter
    (fun (d : Comfort.Campaign.discovery) ->
      Printf.printf "  [case %4d] %-13s %-10s %s\n" d.Comfort.Campaign.disc_at
        (Engines.Registry.engine_name d.Comfort.Campaign.disc_engine)
        d.Comfort.Campaign.disc_behavior
        (Jsinterp.Quirk.to_string d.Comfort.Campaign.disc_quirk))
    res.Comfort.Campaign.cp_discoveries;
  if profile then begin
    print_string (Comfort.Metrics.profile_to_string
                    (Comfort.Metrics.profile ~wall_ns));
    print_endline "counters (deltas over the campaign):";
    let delta = Cutil.Counter.since counts0 in
    List.iteri
      (fun i (name, _) -> Printf.printf "  %-22s %d\n" name delta.(i))
      (Cutil.Counter.to_list ())
  end;
  match res.Comfort.Campaign.cp_aborted with
  | Some reason ->
      Printf.eprintf "campaign aborted early: %s\n" reason;
      exit 1
  | None -> ()

let fuzz_cmd =
  let budget =
    Arg.(value & opt (some int) None
         & info [ "budget" ] ~doc:"Number of test cases (default 1000).")
  in
  let fuzzer =
    Arg.(value & opt (some string) None & info [ "fuzzer" ]
           ~doc:"comfort | deepsmith | fuzzilli | codealchemist | die | \
                 montage (default comfort)")
  in
  let seed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"RNG seed (default 7).")
  in
  let feedback =
    Arg.(value & flag & info [ "feedback" ]
           ~doc:"Mutate bug-exposing cases between rounds (the §5.5 extension).")
  in
  let audit =
    Arg.(
      value
      & opt ~vopt:1 int 0
      & info [ "audit" ] ~docv:"N"
          ~doc:
            "Cross-check the fast path against the reference oracle: every \
             $(docv)-th case (1 = every case when the option is given bare; \
             0 = off) is swept under both execution strategies, and the \
             campaign aborts if any testbed's results differ in any \
             field. Incompatible with $(b,--faults), \
             $(b,--feedback) and $(b,--resume).")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault-injection plan for a chaos campaign, e.g. \
             $(b,seed=9;targets=V8;crash=0.1;hang=0.05;flaky=0.3). Injected \
             faults are retried, quarantined and reported — never counted \
             as bugs. Defaults to $(b,COMFORT_FAULTS) from the environment.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"PATH"
          ~doc:
            "Write a resumable campaign checkpoint to $(docv) (atomically) \
             every $(b,--checkpoint-every) cases and when the campaign \
             ends.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 25
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Cases between checkpoint saves (default 25).")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"PATH"
          ~doc:
            "Continue a checkpointed campaign instead of starting fresh. \
             Every campaign parameter except $(b,--workers) is restored from \
             the checkpoint, so $(b,--budget), $(b,--fuzzer), $(b,--seed) \
             and $(b,--faults) are usage errors with it, and the \
             checkpoint's fault plan wins over $(b,COMFORT_FAULTS); the \
             final report is identical to the uninterrupted run's.")
  in
  let halt_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "halt-after" ] ~docv:"N"
          ~doc:
            "Deterministically stop once $(docv) cases are consumed \
             (writing a final checkpoint when $(b,--checkpoint) is set) — \
             the kill-simulation hook behind the CI kill-and-resume job.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Profile the whole campaign pipeline: per-stage wall time and \
             allocation (generate, screen, sweep, vote, attr, reduce, fold \
             plus the nested interpreter substages), printed after the \
             campaign summary.")
  in
  Cmd.v (Cmd.info "fuzz" ~doc:"Run a fuzzing campaign against the simulated engines")
    Term.(const fuzz $ budget $ fuzzer $ seed $ feedback $ workers_arg
          $ audit $ faults $ checkpoint $ checkpoint_every $ resume
          $ halt_after $ profile)

(* --- analyze --- *)

let print_analysis label src =
  (match label with Some l -> Printf.printf "// %s\n" l | None -> ());
  match Analysis.screen ~strict:false src with
  | Error msg -> Printf.printf "syntax error: %s\n" msg
  | Ok (verdict, diag) ->
      if diag.Analysis.d_free <> [] then
        Printf.printf "free variables: %s\n"
          (String.concat ", " diag.Analysis.d_free);
      List.iter
        (fun (e : Analysis.Early_errors.error) ->
          Printf.printf "early error [%s]: %s\n"
            (Analysis.Early_errors.rule_to_string e.Analysis.Early_errors.ee_rule)
            e.Analysis.Early_errors.ee_msg)
        diag.Analysis.d_errors;
      List.iter
        (fun (e : Analysis.Early_errors.error) ->
          Printf.printf "strict-only [%s]: %s\n"
            (Analysis.Early_errors.rule_to_string e.Analysis.Early_errors.ee_rule)
            e.Analysis.Early_errors.ee_msg)
        diag.Analysis.d_strict_only;
      List.iter
        (fun (f : Analysis.Lint.finding) ->
          Printf.printf "lint: %s\n"
            (match f with
            | Analysis.Lint.Nondeterministic api -> "nondeterministic " ^ api
            | Analysis.Lint.No_observable_output -> "no observable output"))
        diag.Analysis.d_lint;
      Printf.printf "verdict: %s\n" (Analysis.verdict_to_string verdict)

let analyze file generate seed =
  match (file, generate) with
  | Some f, _ -> print_analysis None (read_file f)
  | None, n when n > 0 ->
      let g = Comfort.Generator.create ~seed () in
      List.iteri
        (fun i (tc : Comfort.Testcase.t) ->
          if i > 0 then print_newline ();
          print_analysis
            (Some (Printf.sprintf "sample %d" (i + 1)))
            tc.Comfort.Testcase.tc_source)
        (Comfort.Generator.generate g ~n)
  | None, _ ->
      prerr_endline "pass a FILE or --generate N";
      exit 1

let analyze_cmd =
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE") in
  let generate =
    Arg.(value & opt int 0 & info [ "generate" ]
           ~doc:"Analyze $(docv) freshly generated programs instead of a file."
           ~docv:"N")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.") in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static analysis of a JS program: scope, early errors, lint, verdict")
    Term.(const analyze $ file $ generate $ seed)

(* --- export --- *)

let export budget seed dir workers =
  let fz = Comfort.Campaign.comfort_fuzzer ~seed () in
  let res =
    Comfort.Campaign.run ~budget ~workers:(resolve_workers workers) fz
  in
  let files = Comfort.Test262_export.export res in
  (match dir with
  | None ->
      List.iter
        (fun (name, source) -> Printf.printf "// %s\n%s\n" name source)
        files
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      List.iter
        (fun (name, source) ->
          let oc = open_out (Filename.concat dir name) in
          output_string oc source;
          close_out oc)
        files;
      Printf.printf "wrote %d conformance tests to %s/\n" (List.length files) dir);
  Printf.printf "// %d discoveries, %d exportable\n"
    (List.length res.Comfort.Campaign.cp_discoveries)
    (List.length files)

let export_cmd =
  let budget =
    Arg.(value & opt int 1500 & info [ "budget" ] ~doc:"Campaign size.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"RNG seed.") in
  let dir =
    Arg.(value & opt (some string) None & info [ "dir" ] ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Fuzz, then render discoveries as Test262-style conformance tests")
    Term.(const export $ budget $ seed $ dir $ workers_arg)

(* --- reduce --- *)

let reduce file engine version =
  let src = read_file file in
  let cfg =
    match version with
    | Some v -> Engines.Registry.find_config ~engine ~version:v
    | None -> Some (Engines.Registry.latest engine)
  in
  match cfg with
  | None ->
      Printf.eprintf "unknown version\n";
      exit 1
  | Some cfg -> (
      let tb = { Engines.Engine.tb_config = cfg; tb_mode = Engines.Engine.Normal } in
      let target = Engines.Engine.run tb src in
      let reference = Engines.Engine.run_reference src in
      let tsig = Comfort.Difftest.signature_of_result target in
      let rsig = Comfort.Difftest.signature_of_result reference in
      if tsig = rsig then print_endline "// no deviation on that engine; nothing to reduce"
      else
        let dev =
          {
            Comfort.Difftest.d_testbed = tb;
            d_kind = Comfort.Difftest.kind_of tsig rsig;
            d_expected = Comfort.Difftest.signature_to_string rsig;
            d_actual = Comfort.Difftest.signature_to_string tsig;
            d_behavior = Comfort.Difftest.behavior_label tsig rsig;
            d_fired = target.Jsinterp.Run.r_fired;
          }
        in
        let reduced =
          Comfort.Reducer.reduce
            ~still_triggers:
              (Comfort.Reducer.still_triggers_deviation tb dev)
            src
        in
        Printf.printf "// reduced from %d to %d bytes\n%s"
          (String.length src) (String.length reduced) reduced)

let reduce_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let engine =
    Arg.(required & opt (some engine_conv) None & info [ "engine" ] ~doc:"Deviating engine.")
  in
  let version =
    Arg.(value & opt (some string) None & info [ "version" ] ~doc:"Engine version.")
  in
  Cmd.v (Cmd.info "reduce" ~doc:"Reduce a bug-exposing test case")
    Term.(const reduce $ file $ engine $ version)

(* --- spec --- *)

let spec api =
  let db = Lazy.force Specdb.Db.standard in
  match api with
  | None ->
      print_endline (Specdb.Db.stats db);
      List.iter
        (fun (e : Specdb.Spec_ast.entry) ->
          Printf.printf "%-45s rules %d/%d\n" e.Specdb.Spec_ast.e_name
            e.Specdb.Spec_ast.e_parsed_rules e.Specdb.Spec_ast.e_rule_count)
        db.Specdb.Db.entries
  | Some name -> (
      match Specdb.Db.lookup db (Specdb.Db.last_component name) with
      | [] -> Printf.eprintf "no spec entry for %s\n" name
      | entries ->
          List.iter (fun e -> print_endline (Specdb.Spec_ast.to_json e)) entries)

let spec_cmd =
  let api = Arg.(value & pos 0 (some string) None & info [] ~docv:"API") in
  Cmd.v (Cmd.info "spec" ~doc:"Show extracted ECMA-262 specification rules")
    Term.(const spec $ api)

(* --- engines --- *)

let engines_list () =
  List.iter
    (fun (c : Engines.Registry.config) ->
      Printf.printf "%-14s %-14s %-10s %s (%d seeded bugs)\n"
        (Engines.Registry.engine_name c.Engines.Registry.cfg_engine)
        c.Engines.Registry.cfg_version c.Engines.Registry.cfg_release
        (Engines.Registry.es_to_string c.Engines.Registry.cfg_es)
        (Jsinterp.Quirk.Set.cardinal c.Engines.Registry.cfg_quirks))
    Engines.Registry.all_configs

let engines_cmd =
  Cmd.v (Cmd.info "engines" ~doc:"List the simulated engine registry")
    Term.(const engines_list $ const ())

(* A downstream pipe closing early (e.g. `comfort export | head`) must be
   a clean exit, not a SIGPIPE death or an uncaught Unix_error: ignore the
   signal so writes fail with EPIPE instead, and treat that (in either its
   Unix or its out_channel clothing) as "the consumer has seen enough".
   Stdlib's at_exit flush ignores write errors, so exit itself is safe. *)
let broken_pipe = function
  | Unix.Unix_error (Unix.EPIPE, _, _) -> true
  | Sys_error msg ->
      let needle = "roken pipe" in
      let lm = String.length msg and ln = String.length needle in
      let rec scan i = i + ln <= lm && (String.sub msg i ln = needle || scan (i + 1)) in
      scan 0
  | _ -> false

let () =
  if Sys.unix then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let doc = "Comfort: conformance fuzzing for (simulated) JavaScript engines" in
  exit
    (try
       Cmd.eval ~catch:false
         (Cmd.group (Cmd.info "comfort" ~doc)
            [
              generate_cmd; mutate_cmd; run_cmd; difftest_cmd; fuzz_cmd;
              analyze_cmd; export_cmd; reduce_cmd; spec_cmd; engines_cmd;
            ])
     with
    | e when broken_pipe e ->
        (* Stdlib's at_exit flush ignores errors but Format's does not:
           point the standard formatters at the void so exiting cannot
           re-raise from their flush *)
        List.iter
          (fun fmt ->
            Format.pp_set_formatter_output_functions fmt
              (fun _ _ _ -> ())
              (fun () -> ()))
          [ Format.std_formatter; Format.err_formatter ];
        0
    | e ->
        (* what Cmd.eval ~catch:true would have done *)
        Printf.eprintf "comfort: internal error, uncaught exception:\n%s\n"
          (Printexc.to_string e);
        124)
