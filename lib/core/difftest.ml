(* Differential testing with majority voting (paper §3.4, Fig. 5).

   A test case runs on every applicable testbed; testbeds whose front end
   does not support the program's ECMAScript edition are excluded (§2.2).
   Each run is summarised to a behaviour signature; the majority signature
   is taken as ground truth and every minority testbed is reported as a
   deviation, classified into the Figure-5 vocabulary. Crashes and
   timeouts are flagged regardless of the vote. *)

open Jsinterp

type signature =
  | Sig_parse_fail
  | Sig_normal of string           (** printed output *)
  | Sig_exception of string * string  (** error name, output before throw *)
  | Sig_crash
  | Sig_timeout

let signature_to_string = function
  | Sig_parse_fail -> "parse error"
  | Sig_normal out -> "output " ^ String.escaped out
  | Sig_exception (name, _) -> "uncaught " ^ name
  | Sig_crash -> "crash"
  | Sig_timeout -> "timeout"

type deviation_kind =
  | Dev_parse       (** inconsistent parse outcome *)
  | Dev_output      (** wrong output *)
  | Dev_exception   (** throws where majority doesn't, or vice versa *)
  | Dev_crash       (** runtime crash *)
  | Dev_timeout     (** runtime timeout (2t rule) *)

let deviation_kind_to_string = function
  | Dev_parse -> "ParseError"
  | Dev_output -> "WrongOutput"
  | Dev_exception -> "Exception"
  | Dev_crash -> "Crash"
  | Dev_timeout -> "TimeOut"

type deviation = {
  d_testbed : Engines.Engine.testbed;
  d_kind : deviation_kind;
  d_expected : string;   (** majority signature, rendered *)
  d_actual : string;
  d_behavior : string;   (** leaf label for the bug-filter tree *)
  d_fired : Quirk.Set.t; (** ground-truth quirks that fired on this testbed *)
}

type case_report = {
  cr_case : Testcase.t;
  cr_deviations : deviation list;
  cr_all_parse_failed : bool;
  cr_all_timeout : bool;
  cr_tested : int;  (** testbeds that actually ran the case *)
  cr_faulted : (string * Supervisor.fault_report) list;
      (** testbeds whose supervised execution exhausted its retry budget;
          excluded from the vote, never reported as deviations *)
  cr_skipped : int;  (** testbeds dropped from the sweep by quarantine *)
}

(* Behaviour label in the style of the paper's Fig. 6 leaves. *)
let behavior_label (sig_ : signature) (majority : signature) : string =
  match (sig_, majority) with
  | Sig_crash, _ -> "Crash"
  | Sig_timeout, _ -> "TimeOut"
  | Sig_exception (name, _), _ -> name
  | Sig_normal _, Sig_exception (name, _) -> "Missing" ^ name
  | Sig_normal _, _ -> "WrongOutput"
  | Sig_parse_fail, _ -> "ParseError"

let kind_of (sig_ : signature) (majority : signature) : deviation_kind =
  match (sig_, majority) with
  | Sig_crash, _ -> Dev_crash
  | Sig_timeout, _ -> Dev_timeout
  | Sig_parse_fail, _ | _, Sig_parse_fail -> Dev_parse
  | Sig_exception _, _ | _, Sig_exception _ -> Dev_exception
  | Sig_normal _, _ -> Dev_output

(* Convert a run result to a signature; timeouts via fuel exhaustion. *)
let signature_of_result (r : Run.result) : signature =
  if not r.Run.r_parsed then Sig_parse_fail
  else
    match r.Run.r_status with
    | Run.Sts_normal -> Sig_normal r.Run.r_output
    | Run.Sts_uncaught (name, _) -> Sig_exception (name, r.Run.r_output)
    | Run.Sts_crash _ -> Sig_crash
    | Run.Sts_timeout -> Sig_timeout

(* The campaign's per-testbed execution budget, the single source of truth
   threaded through [run_case], [Campaign.run] and [Feedback.run_rounds].
   300k fuel units is deliberately far below [Run.default_fuel] (2M, sized
   for one-off interactive runs): it is deep enough to reach every seeded
   quirk's trigger — the costliest, the Hermes reverse-fill cost model,
   burns ~100k on generator-sized arrays — while keeping the 2t rule's
   20k-fuel timeout floor meaningful and bounding the worst case of a
   102-testbed sweep per case. *)
let campaign_fuel = 300_000

(* The 2t rule (§3.4): an engine that terminated but consumed more than
   twice the slowest of the other engines — with a floor to avoid noise —
   is flagged as a timeout. Each run excludes only itself from the "other
   engines" pool, by position: excluding by fuel value would also drop
   unrelated engines that happened to burn the same amount, letting two
   equally-slow engines each hide the other and both be falsely flagged. *)
let apply_2t_rule (results : (Engines.Engine.testbed * Run.result) list) :
    (Engines.Engine.testbed * Run.result * signature) list =
  (* One pass computes the count and top-two max fuels of the
     normally-terminated pool; excluding run [i] is then O(1): the pool
     max without [i] is the second max when [i] holds the unique maximum
     and the max otherwise (a duplicated maximum leaves second = first,
     which is also what excluding one copy yields). This runs once per
     execution per case, so the old quadratic rebuild of the pool was a
     measurable slice of the vote stage. *)
  let nf = ref 0 and m1 = ref 0 and m2 = ref 0 in
  List.iter
    (fun (_, (r : Run.result)) ->
      if r.Run.r_parsed && r.Run.r_status = Run.Sts_normal then begin
        incr nf;
        let f = r.Run.r_fuel_used in
        if f >= !m1 then begin
          m2 := !m1;
          m1 := f
        end
        else if f > !m2 then m2 := f
      end)
    results;
  List.map
    (fun (tb, (r : Run.result)) ->
      let sig_ = signature_of_result r in
      let normal = r.Run.r_parsed && r.Run.r_status = Run.Sts_normal in
      let n_others = if normal then !nf - 1 else !nf in
      let t = if normal && r.Run.r_fuel_used = !m1 then !m2 else !m1 in
      let slow =
        sig_ <> Sig_timeout && n_others > 0
        && r.Run.r_fuel_used > max (2 * t) 20_000
      in
      (tb, r, if slow then Sig_timeout else sig_))
    results

(* --- the worker half: the supervised testbed sweep --- *)

(* The raw material of one differential test, before any vote: every
   applicable testbed's supervised execution outcome. Produced by the
   campaign's worker (in-process or forked); judged (vote, quarantine
   filtering) on the driver. The split is what keeps supervision
   deterministic: fault draws depend only on (plan, testbed, case key),
   while every stateful decision — which testbeds are quarantined, what
   the majority is — happens in submission order on the driver. *)
type sweep = {
  sw_case : Testcase.t;
  sw_key : int;  (** the case key the fault draws were keyed by *)
  sw_execs :
    (Engines.Engine.testbed * Jsinterp.Run.result Supervisor.outcome) list;
}

let sweep_case ?(fuel = campaign_fuel) ?strategy ?plan ?supervisor
    ?(case_key = 0) ?cache (testbeds : Engines.Engine.testbed list)
    (tc : Testcase.t) : sweep =
  Run.Stage.time Run.Stage.sweep @@ fun () ->
  let strategy = Strategy.value strategy in
  (* one execution cache per case: edition gating and the per-group parse
     are shared across the whole testbed sweep under either strategy;
     under [Fast], whole executions are shared across behavioural
     equivalence classes too (DESIGN.md §8). [cache] lets the campaign
     driver share one cache across this case's several sweeps (one per
     mode group) so the base parses and their compilations run once per
     case, not once per group — classes are keyed by mode, so no
     execution is ever shared across groups; it must have been built for
     [tc]'s source. *)
  let ec =
    match cache with
    | Some ec -> ec
    | None -> Engines.Engine.Exec.cache tc.Testcase.tc_source
  in
  let fc = Engines.Engine.Exec.frontend_cache ec in
  (* edition gating: skip engines whose front end cannot express the
     program when the standard front end can *)
  let applicable =
    List.filter
      (fun (tb : Engines.Engine.testbed) ->
        Engines.Engine.Frontend.supports fc tb.Engines.Engine.tb_config)
      testbeds
  in
  let supervised = supervisor <> None || plan <> None in
  let execs =
    List.map
      (fun (tb : Engines.Engine.testbed) ->
        let thunk () = Engines.Engine.Exec.run ~fuel ~strategy ec tb in
        let outcome =
          if not supervised then
            (* happy path: no supervision requested, run bare — a real
               escaped exception then still poisons the item, as before
               this layer existed. The testbed-id string is only built on
               the supervised path; at ~12.5 executions per case the
               sprintf was visible in the sweep-stage profile. *)
            Supervisor.Done (thunk (), Supervisor.ok_meta)
          else
            let tb_id = Engines.Engine.testbed_id tb in
            (* skipping work for an already-quarantined testbed is sound
               even on a worker's stale fork-time copy: the judge
               re-checks against driver state, and the quarantine set
               only grows *)
            match (supervisor, plan) with
            | Some sup, _ when Supervisor.quarantined sup tb_id ->
                Supervisor.Skipped
            | _, None -> Supervisor.Done (thunk (), Supervisor.ok_meta)
            | _, Some plan ->
                Supervisor.execute ~plan ~testbed_id:tb_id ~case_key thunk
        in
        (tb, outcome))
      applicable
  in
  { sw_case = tc; sw_key = case_key; sw_execs = execs }

(* --- the driver half: quarantine filtering, the vote, the verdict --- *)

(* The vote's tally: one class per distinct signature, in first-seen
   (testbed) order. The cost scales with the number of distinct
   executions, not the number of testbeds: a shared execution hands every
   member of its class the same output string, so most comparisons stop
   at physical identity ([String.equal] is the fallback), and each class
   renders its signature at most once however many deviations carry it.
   The majority is the first-seen class with the highest count — what a
   testbed-order scan over per-signature counts picks. *)
type vote_class = {
  vc_sig : signature;
  mutable vc_count : int;
  mutable vc_text : string option;  (** [signature_to_string vc_sig] *)
}

let signature_equal (a : signature) (b : signature) : bool =
  match (a, b) with
  | Sig_normal x, Sig_normal y -> x == y || String.equal x y
  | Sig_exception (n, x), Sig_exception (m, y) ->
      String.equal n m && (x == y || String.equal x y)
  | Sig_parse_fail, Sig_parse_fail | Sig_crash, Sig_crash
  | Sig_timeout, Sig_timeout ->
      true
  | _ -> false

let rendered (c : vote_class) : string =
  match c.vc_text with
  | Some t -> t
  | None ->
      let t = signature_to_string c.vc_sig in
      c.vc_text <- Some t;
      t

(* The distinct classes in first-seen order, and each run's class. *)
let vote (runs : ('a * 'b * signature) list) : vote_class list * vote_class list =
  let classes = ref [] in
  let class_of =
    List.map
      (fun (_, _, s) ->
        match List.find_opt (fun c -> signature_equal c.vc_sig s) !classes with
        | Some c ->
            c.vc_count <- c.vc_count + 1;
            c
        | None ->
            let c = { vc_sig = s; vc_count = 1; vc_text = None } in
            classes := c :: !classes;
            c)
      runs
  in
  (List.rev !classes, class_of)

let judge ?supervisor (sw : sweep) : case_report =
  Run.Stage.time Run.Stage.vote @@ fun () ->
  let tc = sw.sw_case in
  (* split the sweep against *driver* quarantine state: results from
     testbeds quarantined by an earlier case are discarded whether or not
     the worker skipped them (it may have raced ahead), so the report is
     a pure function of the in-order case stream *)
  let results = ref [] and faulted = ref [] and skipped = ref 0 in
  (match supervisor with
  | None ->
      (* unsupervised: no quarantine to consult and no observation log to
         feed, so skip building the per-testbed id strings entirely (the
         ids are only needed for the rare Faulted/Skipped outcomes) *)
      List.iter
        (fun ((tb : Engines.Engine.testbed), outcome) ->
          match outcome with
          | Supervisor.Done (r, _) -> results := (tb, r) :: !results
          | Supervisor.Faulted fr ->
              faulted := (Engines.Engine.testbed_id tb, fr) :: !faulted
          | Supervisor.Skipped -> incr skipped)
        sw.sw_execs
  | Some sup ->
      let observations =
        List.filter_map
          (fun ((tb : Engines.Engine.testbed), outcome) ->
            let tb_id = Engines.Engine.testbed_id tb in
            if Supervisor.quarantined sup tb_id then begin
              incr skipped;
              Some (tb_id, Supervisor.Ob_skipped)
            end
            else
              match outcome with
              | Supervisor.Done (r, meta) ->
                  results := (tb, r) :: !results;
                  Some (tb_id, Supervisor.Ob_ok meta)
              | Supervisor.Faulted fr ->
                  faulted := (tb_id, fr) :: !faulted;
                  Some (tb_id, Supervisor.Ob_faulted fr)
              | Supervisor.Skipped ->
                  (* worker saw a quarantine the driver has not reached
                     yet; impossible under the monotone protocol, but
                     treat it as skipped rather than invent a result *)
                  incr skipped;
                  Some (tb_id, Supervisor.Ob_skipped))
          sw.sw_execs
      in
      Supervisor.observe sup ~case_key:sw.sw_key observations);
  let results = List.rev !results in
  let faulted = List.rev !faulted in
  let skipped = !skipped in
  let runs = apply_2t_rule results in
  let tested = List.length runs in
  let all_parse_failed =
    runs <> []
    && List.for_all (function _, _, Sig_parse_fail -> true | _ -> false) runs
  in
  let all_timeout =
    runs <> []
    && List.for_all (function _, _, Sig_timeout -> true | _ -> false) runs
  in
  if all_parse_failed || all_timeout || tested < 3 then
    {
      cr_case = tc;
      cr_deviations = [];
      cr_all_parse_failed = all_parse_failed;
      cr_all_timeout = all_timeout;
      cr_tested = tested;
      cr_faulted = faulted;
      cr_skipped = skipped;
    }
  else begin
    (* majority vote over distinct signatures (see [vote]); every
       deviation with a given signature points at the one rendering of
       it *)
    let classes, class_of = vote runs in
    let majority =
      List.fold_left (fun b c -> if c.vc_count > b.vc_count then c else b)
        (List.hd classes) classes
    in
    let have_majority = 2 * majority.vc_count > tested in
    let deviations =
      List.concat
        (List.map2
           (fun ((tb : Engines.Engine.testbed), (r : Run.result), s) c ->
             let is_anomaly =
               match s with
               | Sig_crash | Sig_timeout -> true (* always of interest *)
               | _ -> have_majority && c != majority
             in
             if not is_anomaly then []
             else
               [
                 {
                   d_testbed = tb;
                   d_kind = kind_of s majority.vc_sig;
                   d_expected = rendered majority;
                   d_actual = rendered c;
                   d_behavior = behavior_label s majority.vc_sig;
                   d_fired = r.Run.r_fired;
                 };
               ])
           runs class_of)
    in
    {
      cr_case = tc;
      cr_deviations = deviations;
      cr_all_parse_failed = false;
      cr_all_timeout = false;
      cr_tested = tested;
      cr_faulted = faulted;
      cr_skipped = skipped;
    }
  end

(* One differential test, sweep and judge in one go — the entry point for
   everything that tests a case outside a supervised campaign loop. With
   no [plan]/[supervisor] this computes exactly what it did
   before the supervision layer existed. *)
let run_case ?fuel ?strategy ?plan ?supervisor ?case_key ?cache
    (testbeds : Engines.Engine.testbed list) (tc : Testcase.t) : case_report =
  judge ?supervisor
    (sweep_case ?fuel ?strategy ?plan ?supervisor ?case_key ?cache
       testbeds tc)

(* Field-wise report equality; testbeds are compared by id. *)
let deviation_equal (a : deviation) (b : deviation) : bool =
  Engines.Engine.testbed_id a.d_testbed = Engines.Engine.testbed_id b.d_testbed
  && a.d_kind = b.d_kind
  && a.d_expected = b.d_expected
  && a.d_actual = b.d_actual
  && a.d_behavior = b.d_behavior
  && Quirk.Set.equal a.d_fired b.d_fired

let report_equal (a : case_report) (b : case_report) : bool =
  a.cr_case.Testcase.tc_source = b.cr_case.Testcase.tc_source
  && a.cr_all_parse_failed = b.cr_all_parse_failed
  && a.cr_all_timeout = b.cr_all_timeout
  && a.cr_tested = b.cr_tested
  && List.length a.cr_deviations = List.length b.cr_deviations
  && List.for_all2 deviation_equal a.cr_deviations b.cr_deviations
  && List.map fst a.cr_faulted = List.map fst b.cr_faulted
  && a.cr_skipped = b.cr_skipped

exception Audit_mismatch of string

(* The audit: sweep the case under both strategies and fail loudly on the
   first testbed whose results differ in any field. Reference runs share
   nothing, so each Reference result is the testbed's own observation.
   Returns the Fast report, which an auditing campaign uses as the real
   result of the case. *)
let audit_case ?(fuel = campaign_fuel) (testbeds : Engines.Engine.testbed list)
    (tc : Testcase.t) : case_report =
  let src = tc.Testcase.tc_source in
  let reference = sweep_case ~fuel ~strategy:Strategy.Reference testbeds tc in
  let fast = sweep_case ~fuel ~strategy:Strategy.Fast testbeds tc in
  List.iter2
    (fun (tb, ro) (_, fo) ->
      match (ro, fo) with
      | Supervisor.Done (r, _), Supervisor.Done (f, _) -> (
          match Run.differing_field r f with
          | Some field ->
              raise
                (Audit_mismatch
                   (Printf.sprintf
                      "case %d on %s: Fast and Reference results differ in \
                       %s\nsource:\n%s"
                      tc.Testcase.tc_id
                      (Engines.Engine.testbed_id tb)
                      field src))
          | None -> ())
      | _ -> ())
    reference.sw_execs fast.sw_execs;
  judge fast
