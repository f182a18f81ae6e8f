(* Feedback-driven mutation of bug-exposing test cases — the extension the
   paper sketches as future work (§5.5: "extending Comfort to mutate
   bug-exposing test cases could be valuable", in the spirit of LangFuzz).

   [wrap base] produces a fuzzer that behaves like [base] but maintains a
   bank of "interesting" test cases — those that deviated on some testbed —
   and mixes mutants of banked cases into each batch. Mutants preserve the
   bank member's structure (literal and operator mutation, plus splicing a
   statement from another banked case), the aspect-preserving idea the
   paper cites from DIE.

   The campaign driver feeds deviations back through [record]; the wrapper
   then probes the neighbourhood of every bug it has seen so far. *)

type t = {
  fb_base : Campaign.fuzzer;
  fb_rng : Cutil.Rng.t;
  fb_bank : Jsast.Ast.program Queue.t;
  fb_mix : float;  (** fraction of each batch drawn from bank mutants *)
  mutable fb_banked : int;
}

let create ?(seed = 51) ?(mix = 0.3) (base : Campaign.fuzzer) : t =
  {
    fb_base = base;
    fb_rng = Cutil.Rng.create seed;
    fb_bank = Queue.create ();
    fb_mix = mix;
    fb_banked = 0;
  }

(* Bank a test case that exposed a deviation. *)
let record (t : t) (tc : Testcase.t) : unit =
  match Jsparse.Parser.parse_program tc.Testcase.tc_source with
  | p ->
      Queue.add p t.fb_bank;
      t.fb_banked <- t.fb_banked + 1;
      (* bound the bank; oldest cases rotate out *)
      if Queue.length t.fb_bank > 200 then ignore (Queue.pop t.fb_bank)
  | exception Jsparse.Parser.Syntax_error _ -> ()

let bank_size (t : t) = Queue.length t.fb_bank

let mutate_banked (t : t) : string option =
  if Queue.is_empty t.fb_bank then None
  else begin
    let members = List.of_seq (Queue.to_seq t.fb_bank) in
    let parent = Cutil.Rng.pick t.fb_rng members in
    let child =
      match Cutil.Rng.int t.fb_rng 3 with
      | 0 -> Jsast.Mutate.mutate_literal ~preserve_type:true t.fb_rng parent
      | 1 -> Jsast.Mutate.mutate_operator t.fb_rng parent
      | _ ->
          Jsast.Mutate.splice t.fb_rng ~host:parent
            ~donor:(Cutil.Rng.pick t.fb_rng members)
    in
    Some (Jsast.Mutate.to_src child)
  end

(* The wrapped fuzzer: mixes bank mutants into every batch once the bank is
   non-empty. *)
let fuzzer (t : t) : Campaign.fuzzer =
  {
    Campaign.fz_name = t.fb_base.Campaign.fz_name ^ "+feedback";
    fz_raw = t.fb_base.Campaign.fz_raw;
    fz_batch =
      (fun n ->
        let from_bank =
          if Queue.is_empty t.fb_bank then 0
          else Float.to_int (Float.of_int n *. t.fb_mix)
        in
        let mutants =
          List.filter_map
            (fun _ ->
              Option.map
                (fun src ->
                  Testcase.make
                    ~provenance:(Testcase.P_fuzzer "feedback")
                    src)
                (mutate_banked t))
            (List.init from_bank (fun i -> i))
        in
        mutants @ t.fb_base.Campaign.fz_batch (n - List.length mutants));
  }

(* A complete feedback campaign: run in rounds, banking each round's
   deviating cases before the next. Returns the final campaign result
   accumulated over all rounds. *)
let run_rounds ?(testbeds = Campaign.default_testbeds ()) ?(rounds = 4)
    ?(budget_per_round = 500) ?(fuel = Difftest.campaign_fuel)
    ?strategy (t : t) : Campaign.result =
  let merged : Campaign.result option ref = ref None in
  for _ = 1 to rounds do
    let res =
      Campaign.run ~testbeds ~budget:budget_per_round ~fuel ?strategy
        (fuzzer t)
    in
    (* bank this round's exposing cases *)
    List.iter (fun d -> record t d.Campaign.disc_case) res.Campaign.cp_discoveries;
    merged :=
      Some
        (match !merged with
        | None -> res
        | Some acc ->
            let seen =
              List.map
                (fun d -> (d.Campaign.disc_engine, d.Campaign.disc_quirk))
                acc.Campaign.cp_discoveries
            in
            let fresh =
              List.filter
                (fun d ->
                  not
                    (List.mem
                       (d.Campaign.disc_engine, d.Campaign.disc_quirk)
                       seen))
                res.Campaign.cp_discoveries
            in
            {
              acc with
              Campaign.cp_cases_run =
                acc.Campaign.cp_cases_run + res.Campaign.cp_cases_run;
              cp_discoveries = acc.Campaign.cp_discoveries @ fresh;
              cp_filtered_repeats =
                acc.Campaign.cp_filtered_repeats + res.Campaign.cp_filtered_repeats;
              cp_unattributed =
                acc.Campaign.cp_unattributed + res.Campaign.cp_unattributed;
              cp_screened_out =
                acc.Campaign.cp_screened_out + res.Campaign.cp_screened_out;
              cp_screen_reasons =
                (let tbl = Hashtbl.create 8 in
                 List.iter
                   (fun (r, n) ->
                     Hashtbl.replace tbl r
                       (n + Option.value (Hashtbl.find_opt tbl r) ~default:0))
                   (acc.Campaign.cp_screen_reasons
                   @ res.Campaign.cp_screen_reasons);
                 Hashtbl.fold (fun r n l -> (r, n) :: l) tbl []
                 |> List.sort (fun (a, _) (b, _) -> compare a b));
              cp_repaired =
                acc.Campaign.cp_repaired + res.Campaign.cp_repaired;
              cp_specialized =
                acc.Campaign.cp_specialized + res.Campaign.cp_specialized;
              cp_cow_clones =
                acc.Campaign.cp_cow_clones + res.Campaign.cp_cow_clones;
              cp_skipped_cases =
                acc.Campaign.cp_skipped_cases + res.Campaign.cp_skipped_cases;
              cp_faults =
                (let a = acc.Campaign.cp_faults
                 and b = res.Campaign.cp_faults in
                 {
                   Supervisor.st_injected = a.Supervisor.st_injected + b.Supervisor.st_injected;
                   st_retried = a.Supervisor.st_retried + b.Supervisor.st_retried;
                   st_faulted = a.Supervisor.st_faulted + b.Supervisor.st_faulted;
                   st_skipped = a.Supervisor.st_skipped + b.Supervisor.st_skipped;
                   st_slow = a.Supervisor.st_slow + b.Supervisor.st_slow;
                   st_backoff = a.Supervisor.st_backoff + b.Supervisor.st_backoff;
                 });
              cp_quarantined =
                acc.Campaign.cp_quarantined @ res.Campaign.cp_quarantined;
              cp_aborted =
                (match acc.Campaign.cp_aborted with
                | Some _ as a -> a
                | None -> res.Campaign.cp_aborted);
            })
  done;
  Option.get !merged
