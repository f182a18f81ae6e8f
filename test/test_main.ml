(* Entry point aggregating every test suite. *)

let () =
  Alcotest.run "comfort"
    [
      ("coordinator", Test_coordinator.suite);
      ("ipc", Test_ipc.suite);
      ("interp", Test_interp.suite);
      ("parser", Test_parser.suite);
      ("string builtins", Test_string_builtins.suite);
      ("array builtins", Test_array_builtins.suite);
      ("object+misc builtins", Test_object_builtins.suite);
      ("quirks", Test_quirks.suite);
      ("regex", Test_regex.suite);
      ("specdb", Test_specdb.suite);
      ("engines", Test_engines.suite);
      ("lm", Test_lm.suite);
      ("generate", Test_generate.suite);
      ("analysis", Test_analysis.suite);
      ("core", Test_core.suite);
      ("executor", Test_executor.suite);
      ("sharing", Test_sharing.suite);
      ("resolve", Test_resolve.suite);
      ("specialize", Test_specialize.suite);
      ("pipeline", Test_pipeline.suite);
      ("util", Test_util.suite);
      ("test262 export", Test_export.suite);
      ("paper listings", Test_listings.suite);
      ("properties", Test_properties.suite);
      ("feedback", Test_feedback.suite);
      ("supervisor", Test_supervisor.suite);
      ("profiler", Test_profiler.suite);
      ("coercions", Test_coercion.suite);
      ("ground truth", Test_groundtruth.suite);
    ]
