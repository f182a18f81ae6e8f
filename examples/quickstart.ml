(* Quickstart: the whole Comfort pipeline on one test program.

     dune exec examples/quickstart.exe

   1. sample a JS test program from the language model;
   2. screen it with the static-analysis pass (scope, early errors, lint);
   3. apply ECMA-262-guided test-data generation (Algorithm 1);
   4. differential-test each case across the ten simulated engines;
   5. report any deviation together with the ground-truth bug it hit. *)

let () =
  print_endline "=== 1. generate a test program (GPT-2 substitute) ===";
  let gen = Comfort.Generator.create ~seed:2024 () in
  let tc = List.hd (Comfort.Generator.generate gen ~n:1) in
  print_endline tc.Comfort.Testcase.tc_source;

  print_endline "=== 2. static-analysis screen ===";
  let tc =
    match Comfort.Campaign.screen_case tc with
    | Comfort.Campaign.S_kept tc ->
        print_endline "verdict: keep\n";
        tc
    | Comfort.Campaign.S_repaired tc ->
        Printf.printf "verdict: repaired (free variables bound)\n\n%s\n"
          tc.Comfort.Testcase.tc_source;
        tc
    | Comfort.Campaign.S_dropped reason ->
        (* in the campaign driver a dropped case is replaced by a fresh
           draw; here we just keep going with the original *)
        Printf.printf "verdict: drop (%s) — campaign would redraw\n\n" reason;
        tc
  in

  print_endline "=== 3. ECMA-262-guided test data (Algorithm 1) ===";
  let dg = Comfort.Datagen.create ~seed:5 () in
  let mutants =
    match Jsparse.Parser.check_syntax tc.Comfort.Testcase.tc_source with
    | Ok p -> List.of_seq (Seq.map fst (Comfort.Datagen.mutate dg p))
    | Error _ -> []
  in
  Printf.printf "%d mutated test cases; first one:\n\n" (List.length mutants);
  (match mutants with
  | m :: _ -> print_endline m.Comfort.Testcase.tc_source
  | [] -> print_endline "(no API call sites found in this sample)");

  print_endline "=== 4. differential testing across ten engines ===";
  let testbeds = Engines.Engine.latest_testbeds () in
  let deviations = ref 0 in
  List.iter
    (fun case ->
      let report = Comfort.Difftest.run_case testbeds case in
      List.iter
        (fun (d : Comfort.Difftest.deviation) ->
          incr deviations;
          Printf.printf "deviation on %s: %s (expected %s)\n"
            (Engines.Engine.testbed_id d.Comfort.Difftest.d_testbed)
            d.Comfort.Difftest.d_actual d.Comfort.Difftest.d_expected;
          Jsinterp.Quirk.Set.iter
            (fun q ->
              Printf.printf "  -> ground-truth bug: %s\n" (Jsinterp.Quirk.to_string q))
            d.Comfort.Difftest.d_fired)
        report.Comfort.Difftest.cr_deviations)
    (tc :: mutants);
  if !deviations = 0 then
    print_endline
      "all engines agreed on every case (typical: most cases pass; run the\n\
       fuzz campaign in examples/conformance_hunt.ml to find bugs at scale)"
