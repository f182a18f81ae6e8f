(* The fuzzer stream: each pull yields a case with the front end its
   syntax check made, and the campaign screens it from that front end's
   program instead of parsing the text again. *)

let fuzzers () =
  let feedback () =
    let fb =
      Comfort.Feedback.create ~seed:12
        (Comfort.Campaign.comfort_fuzzer ~seed:12 ())
    in
    List.iter
      (fun s -> Comfort.Feedback.record fb (Comfort.Testcase.make s))
      [ {|print([10, 9, 1].sort());|}; {|print("abcdef".substr(2, undefined));|} ];
    Comfort.Feedback.fuzzer fb
  in
  [
    ("comfort", fun () -> Comfort.Campaign.comfort_fuzzer ~seed:5 ());
    ( "comfort-nodata",
      fun () -> Comfort.Campaign.comfort_fuzzer ~seed:5 ~with_datagen:false () );
    ("deepsmith", fun () -> Baselines.Fuzzers.deepsmith ());
    ("fuzzilli", fun () -> Baselines.Fuzzers.fuzzilli ());
    ("codealchemist", fun () -> Baselines.Fuzzers.codealchemist ());
    ("die", fun () -> Baselines.Fuzzers.die ());
    ("montage", fun () -> Baselines.Fuzzers.montage ());
    ("feedback", feedback);
  ]

(* Digests of the (provenance, validity, source) stream of the first 608
   pulls. All but feedback's were recorded from the eager [fz_batch] of
   three batches of 600, 7 and 1 cases that the pull replaced: every
   fuzzer but feedback ignored the batch size, so the pull must yield the
   same cases in the same order. Feedback's batch put its bank mutants
   first; its stream interleaves them three in ten. *)
let golden =
  [
    ("comfort", "b95d6a472cb75d510bf4beccf2dc82fa");
    ("comfort-nodata", "b7dc68e907c4813b89b2297ec530d173");
    ("deepsmith", "8ea70e4ab069838b7fc428db3dac4ece");
    ("fuzzilli", "bad7d28a8040ab2a385a7ed1ab7c8f9e");
    ("codealchemist", "2e79791ed6c9ea5578aa6330acdcc390");
    ("die", "925f91a78f7841bf758a05825ad3938c");
    ("montage", "64534c789f94be00292a287cf283e802");
    ("feedback", "71adcf82e6fb1959b61e42e611a18216");
  ]

let print_of = Jsast.Printer.program_to_string

(* The standard base parse, spelled out: sloppy, the standard options,
   every parser-level quirk acceptance on. *)
let permissive_parse src =
  Jsinterp.Run.parse_frontend
    ~quirks:
      (Jsinterp.Quirk.Set.of_list
         Jsinterp.Quirk.
           [
             Q_eval_for_missing_body_accepted;
             Q_strict_dup_params_accepted;
             Q_strict_delete_unqualified_accepted;
           ])
    ~parse_opts:Jsparse.Parser.default_options ~strict:false src

let same_stream_with_its_parses name mk () =
  let fz = mk () in
  let b = Buffer.create (1 lsl 16) in
  for _ = 1 to 608 do
    match fz.Comfort.Campaign.fz_next () with
    | None -> Alcotest.failf "%s ran dry" name
    | Some ((tc : Comfort.Testcase.t), parse) -> (
        let src = tc.Comfort.Testcase.tc_source in
        Printf.bprintf b "%s|%b|%d:%s\n"
          (Comfort.Testcase.provenance_to_string tc.Comfort.Testcase.tc_provenance)
          tc.Comfort.Testcase.tc_syntax_valid (String.length src) src;
        (* the handed front end is the permissive base parse of the
           case's own text, and exists exactly when the case is valid;
           its program is then the standard front end's *)
        match (parse, Jsparse.Parser.check_syntax src) with
        | Some (fe : Jsinterp.Run.frontend), Ok q ->
            let fresh = permissive_parse src in
            let printed (f : Jsinterp.Run.frontend) =
              match f.Jsinterp.Run.fe_program with
              | Ok p -> print_of p
              | Error (m, _) -> "syntax error: " ^ m
            in
            if not tc.Comfort.Testcase.tc_syntax_valid then
              Alcotest.failf "%s: a front end handed for an invalid case:\n%s"
                name src;
            if
              not
                (String.equal (printed fe) (printed fresh)
                && String.equal (printed fe) (print_of q)
                && Jsinterp.Quirk.Set.equal fe.Jsinterp.Run.fe_fired
                     fresh.Jsinterp.Run.fe_fired
                && fe.Jsinterp.Run.fe_strict_sensitive
                   = fresh.Jsinterp.Run.fe_strict_sensitive
                && fe.Jsinterp.Run.fe_edition_sensitive
                   = fresh.Jsinterp.Run.fe_edition_sensitive)
            then
              Alcotest.failf "%s: the handed front end is not that of\n%s"
                name src
        | None, Error _ when not tc.Comfort.Testcase.tc_syntax_valid -> ()
        | _ ->
            Alcotest.failf "%s: front end handed %b for a case valid %b:\n%s"
              name (Option.is_some parse) tc.Comfort.Testcase.tc_syntax_valid
              src)
  done;
  Alcotest.(check string)
    (name ^ " stream digest") (List.assoc name golden)
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let parses f =
  let before = Jsparse.Parser.parse_count () in
  let r = f () in
  (r, Jsparse.Parser.parse_count () - before)

(* [screen_case] parses the case once, then runs the screen the gather
   runs on its fuzzer's parse; that screen parses only a repaired text *)
let screen_from_the_handed_parse () =
  let screen src =
    let tc = Comfort.Testcase.make src in
    parses (fun () -> Comfort.Campaign.screen_case tc)
  in
  (match screen "print(1 + 2);" with
  | Comfort.Campaign.S_kept _, n ->
      Alcotest.(check int) "a kept case is parsed once" 1 n
  | _ -> Alcotest.fail "print(1 + 2) was not kept");
  match screen "print(q + 1);" with
  | Comfort.Campaign.S_repaired tc, n ->
      Alcotest.(check int) "a repaired case parses its repaired text only" 2 n;
      Alcotest.(check string) "the repair binds q" "var q = 1;\nprint(q + 1);\n"
        tc.Comfort.Testcase.tc_source
  | _ -> Alcotest.fail "print(q + 1) was not repaired"

(* Every parse a fixed-seed campaign makes: the syntax check, the
   sweep's front ends and attribution. Gathering may not parse a case
   again, and the in-process sweep takes the draw's front end of a case
   kept as drawn. Before the screen took the handed parse, the same
   campaigns made 387 (comfort) and 490 (fuzzilli, whose corpus
   admission parsed each mutant once more); before the campaign streamed
   its cases to the sweep, 282 and 288 (comfort's also counted each
   Datagen boundary value once per use); before Fuzzilli's corpus
   admission stopped running each novel mutant, 141 and 207. *)
let parse_budget name fz ~per_100 () =
  let res, n =
    parses (fun () ->
        Comfort.Campaign.run
          ~testbeds:(Engines.Engine.latest_testbeds ~mode:Engines.Engine.Normal ())
          ~budget:100 ~workers:0 ~strategy:Jsinterp.Strategy.Fast (fz ()))
  in
  Alcotest.(check int) (name ^ " cases") 100 res.Comfort.Campaign.cp_cases_run;
  Alcotest.(check int) (name ^ " parses per 100 cases") per_100 n

(* Fuzzilli admits a mutant with a new feature to its corpus when it
   parses under the standard options. The features come from the
   draw's front end, which exists exactly when the case's syntax check
   passed, so the admission needs no parse (nor run) of its own: over
   the first 200 pulls of seeds 1-4, a pull hands a front end exactly
   when the parse [Run.run] makes of its text ([r_parsed]) succeeds. *)
let fuzzilli_admission_needs_no_run () =
  List.iter
    (fun seed ->
      let fz = Baselines.Fuzzers.fuzzilli ~seed () in
      for pull = 1 to 200 do
        match fz.Comfort.Campaign.fz_next () with
        | None -> Alcotest.failf "seed %d ran dry at pull %d" seed pull
        | Some ((tc : Comfort.Testcase.t), parse) ->
            let parsed =
              match
                (Jsinterp.Run.parse_frontend tc.Comfort.Testcase.tc_source)
                  .Jsinterp.Run.fe_program
              with
              | Ok _ -> true
              | Error _ -> false
            in
            if Option.is_some parse <> parsed then
              Alcotest.failf
                "seed %d pull %d: front end handed %b, standard parse %b:\n%s"
                seed pull (Option.is_some parse) parsed
                tc.Comfort.Testcase.tc_source
      done)
    [ 1; 2; 3; 4 ]

let suite =
  List.map
    (fun (name, mk) ->
      Alcotest.test_case ("draw: " ^ name ^ " stream and parses") `Quick
        (same_stream_with_its_parses name mk))
    (fuzzers ())
  @ [
      Alcotest.test_case "screen: a handed parse is not parsed again" `Quick
        screen_from_the_handed_parse;
      Alcotest.test_case "fuzzilli: corpus admission needs no run" `Quick
        fuzzilli_admission_needs_no_run;
      Alcotest.test_case "parse budget: comfort" `Quick
        (parse_budget "comfort"
           (fun () -> Comfort.Campaign.comfort_fuzzer ~seed:3 ())
           ~per_100:141);
      Alcotest.test_case "parse budget: fuzzilli" `Quick
        (parse_budget "fuzzilli"
           (fun () -> Baselines.Fuzzers.fuzzilli ~seed:3 ())
           ~per_100:205);
    ]
