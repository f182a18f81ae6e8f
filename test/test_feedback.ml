(* The §5.5 feedback extension: mutation of bug-exposing test cases. *)

open Helpers

let from_feedback (tc : Comfort.Testcase.t) =
  tc.Comfort.Testcase.tc_provenance = Comfort.Testcase.P_fuzzer "feedback"

let records_and_mutates () =
  let fb = Comfort.Feedback.create ~seed:9 (Comfort.Campaign.comfort_fuzzer ~seed:9 ()) in
  (* a fresh wrapped fuzzer's first three pulls are the bank's turn *)
  let bank_turn () = (Comfort.Feedback.fuzzer fb).Comfort.Campaign.fz_batch 3 in
  Alcotest.(check int) "empty bank" 0 (Comfort.Feedback.bank_size fb);
  Alcotest.(check bool) "no mutant from empty bank" false
    (List.exists from_feedback (bank_turn ()));
  let exposing =
    Comfort.Testcase.make {|print("abcdef".substr(2, undefined));|}
  in
  Comfort.Feedback.record fb exposing;
  Alcotest.(check int) "banked" 1 (Comfort.Feedback.bank_size fb);
  (* mutants of banked cases parse and stay in the neighbourhood *)
  for _ = 1 to 7 do
    List.iter
      (fun (tc : Comfort.Testcase.t) ->
        Alcotest.(check bool) "bank mutant" true (from_feedback tc);
        Alcotest.(check bool) "mutant parses" true
          (Jsparse.Parser.is_valid tc.Comfort.Testcase.tc_source))
      (bank_turn ())
  done;
  (* syntactically invalid cases are not banked *)
  Comfort.Feedback.record fb (Comfort.Testcase.make "var = broken");
  Alcotest.(check int) "invalid not banked" 1 (Comfort.Feedback.bank_size fb)

let wrapped_fuzzer_mixes () =
  let fb = Comfort.Feedback.create ~seed:10 (Comfort.Campaign.comfort_fuzzer ~seed:10 ()) in
  Comfort.Feedback.record fb (Comfort.Testcase.make {|print([10, 9, 1].sort());|});
  let batch = (Comfort.Feedback.fuzzer fb).Comfort.Campaign.fz_batch 20 in
  Alcotest.(check int) "batch size" 20 (List.length batch);
  Alcotest.(check int) "30% from the bank" 6
    (List.length (List.filter from_feedback batch))

let rounds_accumulate () =
  let fb = Comfort.Feedback.create ~seed:11 (Comfort.Campaign.comfort_fuzzer ~seed:11 ()) in
  let res = Comfort.Feedback.run_rounds ~rounds:2 ~budget_per_round:200 fb in
  Alcotest.(check int) "total cases" 400 res.Comfort.Campaign.cp_cases_run;
  (* merged discoveries stay unique *)
  let keys =
    List.map
      (fun d -> (d.Comfort.Campaign.disc_engine, d.Comfort.Campaign.disc_quirk))
      res.Comfort.Campaign.cp_discoveries
  in
  Alcotest.(check int) "no duplicates across rounds"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

let suite =
  [
    case "bank and mutate" records_and_mutates;
    case "wrapped fuzzer mixes mutants" wrapped_fuzzer_mixes;
    case "rounds accumulate" rounds_accumulate;
  ]
