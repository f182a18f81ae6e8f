(* Fuzzing campaign driver.

   Feeds test cases from a fuzzer into differential testing across a set of
   testbeds, attributes observed deviations to ground-truth bugs (the
   quirks that fired on the deviating engine), de-duplicates repeats with
   the Fig. 6 filter tree, and keeps the discovery timeline that Fig. 8
   plots.

   Testbeds are grouped by mode before voting: a strict-mode engine and a
   sloppy-mode engine can legitimately disagree, so each mode votes among
   its own ranks — this mirrors the paper's 102-testbed setup where bugs
   are reported "under both the normal and the strict modes".

   The driver runs supervised (DESIGN.md §10): every per-case sweep may be
   subjected to a deterministic fault-injection plan, faulted testbeds are
   retried and eventually quarantined, a killed campaign can be resumed
   from a checkpoint, and a campaign that loses its fuzzer or its whole
   testbed pool finishes with an abort reason instead of dying. *)

open Jsinterp

type fuzzer = {
  fz_name : string;
  fz_batch : int -> Testcase.t list;
      (** produce at least [n] fresh test cases *)
  fz_raw : (int -> string list) option;
      (** raw generator output before any screening/mutation, used for the
          Fig. 9 syntax-passing-rate metric; [None] means the batch output
          is already the raw output (mutation-based fuzzers) *)
}

type discovery = {
  disc_engine : Engines.Registry.engine;
  disc_quirk : Quirk.t;
  disc_case : Testcase.t;
  disc_reduced : string option;
  disc_kind : Difftest.deviation_kind;
  disc_behavior : string;
  disc_at : int;          (** how many cases had run when it was found *)
  disc_version : string;  (** earliest engine version exhibiting the bug *)
  disc_mode : Engines.Engine.mode;
}

type result = {
  cp_fuzzer : string;
  cp_cases_run : int;
  cp_discoveries : discovery list;
  cp_filtered_repeats : int;   (** deviations suppressed by the Fig. 6 tree *)
  cp_unattributed : int;       (** deviations with no fired quirk (noise) *)
  cp_timeline : (int * int) list;  (** (cases run, cumulative unique bugs) *)
  cp_screened_out : int;       (** cases dropped by the static-analysis screen *)
  cp_screen_reasons : (string * int) list;  (** drop reason -> count *)
  cp_repaired : int;           (** cases kept after free-variable repair *)
  cp_reach_seeded : int;  (** always 0; kept for the benchmark harness *)
  cp_specialized : int;
      (** slot compilations performed, one per (front end, mode) that
          executes (0 under [Reference]); reports are identical either
          way — see [Compile] *)
  cp_cow_clones : int;
      (** realm-template objects lazily journaled by the copy-on-write
          write barrier (0 under [Reference]) *)
  cp_ic_hits : int;  (** always 0; kept for the benchmark harness *)
  cp_skipped_cases : int;      (** cases lost to worker failures (recorded,
                                   not fatal) *)
  cp_faults : Supervisor.stats;    (** aggregate supervision counters *)
  cp_quarantined : (string * int) list;
      (** quarantined testbeds as (id, case that tripped the threshold) *)
  cp_aborted : string option;  (** why the campaign ended early, if it did *)
}

exception Halted of { halted_at : int; halted_checkpoint : string option }

exception
  Interrupted of {
    int_signal : string;
    int_at : int;
    int_checkpoint : string option;
  }

(* --- the Comfort fuzzer: LM generation + Algorithm 1 mutants --- *)

let comfort_fuzzer ?(seed = 7) ?(with_datagen = true) () : fuzzer =
  let gen = Generator.create ~seed () in
  (* [with_datagen:false] isolates the ECMA-262 guidance (Table 4 /
     ablation 3): drivers and free-variable bindings are still synthesized,
     but from an empty specification database, so every input value is
     random rather than a spec boundary *)
  let db =
    if with_datagen then Lazy.force Specdb.Db.standard else Specdb.Db.build []
  in
  let dg = Datagen.create ~seed:(seed + 1) ~db () in
  let queue : Testcase.t Queue.t = Queue.create () in
  let rec refill n =
    if n > 0 then begin
      match Generator.next gen with
      | None -> ()
      | Some (tc, parse) ->
          Queue.add tc queue;
          (* the syntax check's parse goes straight to Datagen, which
             would otherwise parse the same text again *)
          let mutants =
            match parse with Some p -> Datagen.mutate dg p | None -> []
          in
          List.iter (fun m -> Queue.add m queue) mutants;
          refill (n - 1 - List.length mutants)
    end
  in
  let raw_gen = Generator.create ~seed:(seed + 2) () in
  {
    fz_name = (if with_datagen then "Comfort" else "Comfort-nodata");
    fz_raw =
      Some (fun n -> List.init n (fun _ -> Generator.sample_program raw_gen));
    fz_batch =
      (fun n ->
        (* [Generator.generate] can legally return [] (its attempt cap);
           bound the refill retries so an exhausted generator fails loudly
           instead of spinning forever *)
        let stalls = ref 0 in
        while Queue.length queue < n do
          let before = Queue.length queue in
          refill (n - before);
          if Queue.length queue = before then begin
            incr stalls;
            if !stalls >= 20 then
              failwith
                "Campaign.comfort_fuzzer: generator produced no test cases \
                 after 20 consecutive attempts"
          end
          else stalls := 0
        done;
        List.init n (fun _ -> Queue.pop queue));
  }

(* --- semantic screening (the §3.2 "filter" step, upgraded to the full
   static-analysis pass: scope resolution, early errors, determinism
   lint) --- *)

type screened =
  | S_kept of Testcase.t
  | S_repaired of Testcase.t  (** free variables bound by the repair step *)
  | S_dropped of string       (** drop reason, for the reason histogram *)

let screen_case (tc : Testcase.t) : screened =
  (* syntactically invalid cases are deliberate (the generator keeps a
     fraction to exercise the parsers) and carry differential signal of
     their own — the semantic screen only judges parseable programs *)
  if not tc.Testcase.tc_syntax_valid then S_kept tc
  else
    match Jsparse.Parser.parse_program tc.Testcase.tc_source with
    | exception Jsparse.Parser.Syntax_error _ -> S_kept tc
    | p -> (
        match Analysis.screen_verdict p with
        | Analysis.Keep -> S_kept tc
        | Analysis.Repair _ ->
            let src = Jsast.Printer.program_to_string (Analysis.bind_free p) in
            S_repaired
              (Testcase.make ~provenance:tc.Testcase.tc_provenance src)
        | Analysis.Drop reason -> S_dropped reason)

(* --- campaign --- *)

let api_of_deviation (dev : Difftest.deviation) (tc : Testcase.t)
    ~(ast : Jsast.Ast.program option Lazy.t) : string option =
  match Quirk.Set.choose_opt dev.Difftest.d_fired with
  | Some q -> Some (Engines.Catalogue.find q).Engines.Catalogue.api
  | None -> (
      match tc.Testcase.tc_provenance with
      | Testcase.P_ecma_mutated api -> Some api
      | _ -> (
          match Lazy.force ast with
          | Some p -> (
              match Jsast.Visit.call_sites p with
              | cs :: _ -> Some cs.Jsast.Visit.cs_callee
              | [] -> None)
          | None -> None))

(* Causal attribution: a fired quirk is credited with a deviation only if
   disabling that quirk alone changes the deviating engine's behaviour on
   the test case. This keeps incidental quirk firings (a deviant path that
   executed but produced the same observable output) from inflating the
   bug count.

   Probes join the class-shared execution machinery the sweep itself
   uses, through the driver's per-case probe [cache]: two probes whose
   reduced quirk sets agree on every consulted checkpoint share one
   execution (the common case — most removed quirks were never touched),
   and probes repeated across rule applications on the same case hit the
   same class representatives. Probes run serially on the driver — the
   fired sets being probed are small (typically 1–3 quirks). The [memo]
   table short-circuits exact repeats — same testbed, same removed quirk,
   same baseline signature — without even a signature comparison. *)
let causal_quirks ~strategy ~cache ~memo (tb : Engines.Engine.testbed)
    (dev : Difftest.deviation) ~fuel : Quirk.t list =
  let cfg = tb.Engines.Engine.tb_config in
  let strict = tb.Engines.Engine.tb_mode = Engines.Engine.Strict in
  let parse_opts = Engines.Registry.parse_opts_of_config cfg in
  let base_sig = dev.Difftest.d_actual in
  let probe q =
    let quirks = Quirk.Set.remove q cfg.Engines.Registry.cfg_quirks in
    (* the parse key is derived from the quirk set, so removing a
       parser-level quirk must move the probe to the parse group it
       actually belongs to — clearing the corresponding flag keeps the
       cache's (front end, mode) invariant intact *)
    let pk = Engines.Registry.parse_key cfg in
    let pkey =
      {
        pk with
        Engines.Registry.pk_for_missing_body =
          pk.Engines.Registry.pk_for_missing_body
          && q <> Quirk.Q_eval_for_missing_body_accepted;
        pk_dup_params =
          pk.Engines.Registry.pk_dup_params
          && q <> Quirk.Q_strict_dup_params_accepted;
        pk_delete_unqualified =
          pk.Engines.Registry.pk_delete_unqualified
          && q <> Quirk.Q_strict_delete_unqualified_accepted;
      }
    in
    Engines.Engine.Exec.run_keyed ~strategy cache ~pkey ~quirks ~parse_opts
      ~strict ~fuel
  in
  let changes q =
    let key = (Engines.Engine.testbed_id tb, q, base_sig) in
    match Hashtbl.find_opt memo key with
    | Some b -> b
    | None ->
        let b =
          Difftest.signature_to_string (Difftest.signature_of_result (probe q))
          <> base_sig
        in
        Hashtbl.replace memo key b;
        b
  in
  (* descending quirk order, as the original Set.fold/prepend produced *)
  List.rev (List.filter changes (Quirk.Set.elements dev.Difftest.d_fired))

let default_testbeds () =
  Engines.Engine.latest_testbeds ~mode:Engines.Engine.Normal ()
  @ Engines.Engine.latest_testbeds ~mode:Engines.Engine.Strict ()

(* --- checkpoint / resume --- *)

module Checkpoint = struct
  (* A checkpoint is a versioned header line followed by one [Ipc] frame
     (length, FNV-1a64 checksum, [Marshal] payload) holding the
     plain-data [state] record below, so a torn, truncated or bit-flipped
     file is refused before anything is unmarshalled. Everything in it is
     data — values, records and hashtables (Testcase.t, registry variants,
     Bugfilter.t, Supervisor.t) — with no closures, so the default
     marshal flags suffice and the file survives process restarts of the
     same binary.

     There is no separate RNG cursor: the campaign's only random draws
     (the fuzzer batch, screening replacements) all happen before the
     first case executes, so storing the fully-drawn case list together
     with the consumed count replays the exact remaining cases on
     resume. *)

  let magic = "COMFORT-CKPT"

  (* v2: added the static reachability analysis' switches and its
     seeded-share tally. v3: added ck_specialize /
     ck_audit_specialize and the specialisation counters (quirk-
     specialised execution). v4: the state is framed and checksummed
     ([Ipc.encode]) instead of a bare [Marshal]. v5: the seven
     per-layer switches and audit strides became [ck_strategy] and
     [ck_audit]. v6: dropped the seeded-share and inline-cache tallies
     with the mechanisms they counted. v7: quirk sets are two-word
     bitsets, and the supervisor is stored as itself rather than as a
     frozen copy. The header check rejects older files
     rather than guess defaults for fields that change what a resumed
     campaign runs. *)
  let version = 7

  type state = {
    ck_fuzzer : string;
    ck_fuel : int;
    ck_strategy : Strategy.t;
    ck_reduce : bool;
    ck_audit : int;
    ck_specialized : int;   (* compilation tally accumulated so far *)
    ck_cow_clones : int;    (* COW write-barrier tally so far *)
    ck_testbeds : string list;       (* Engine.testbed_id, sweep order *)
    ck_plan : string option;         (* Faultplan.to_spec *)
    ck_cases : Testcase.t list;      (* the full drawn case list *)
    ck_consumed : int;               (* cases fully consumed, in order *)
    ck_filter : Bugfilter.t;
    ck_seen : (Engines.Registry.engine * Quirk.t) list;
    ck_discoveries : discovery list; (* newest first, as the driver holds them *)
    ck_unattributed : int;
    ck_timeline : (int * int) list;  (* newest first *)
    ck_screened_out : int;
    ck_screen_reasons : (string * int) list;
    ck_repaired : int;
    ck_skipped_cases : int;
    ck_supervisor : Supervisor.t option;  (* Some iff supervised *)
  }

  let consumed (st : state) = st.ck_consumed
  let total (st : state) = List.length st.ck_cases

  let describe (st : state) =
    Printf.sprintf "%s: %d/%d cases consumed, %d discoveries"
      st.ck_fuzzer st.ck_consumed (total st)
      (List.length st.ck_discoveries)

  (* Write-to-temp plus rename keeps checkpointing atomic: a campaign
     killed mid-save leaves the previous checkpoint intact. The tmp file
     is fsynced before the rename and the directory after it, so a
     host crash cannot publish a torn checkpoint under [path] or lose
     the rename itself; without the first fsync the rename could land
     before the data. (A torn tmp file from a SIGKILL mid-write is
     unreachable by [load] either way — it only ever reads [path].) *)
  let save (path : string) (st : state) : unit =
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Printf.fprintf oc "%s v%d\n" magic version;
        output_string oc (Ipc.encode st);
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    Sys.rename tmp path;
    (* directory fsync is best-effort: some filesystems refuse it *)
    try
      let dfd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close dfd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())
    with Unix.Unix_error _ -> ()

  let load (path : string) : (state, string) Stdlib.result =
    match open_in_bin path with
    | exception Sys_error e -> Error e
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            match input_line ic with
            | exception End_of_file -> Error "empty checkpoint file"
            | header ->
                let expect = Printf.sprintf "%s v%d" magic version in
                if not (String.equal header expect) then
                  Error
                    (Printf.sprintf "bad checkpoint header %S (want %S)"
                       header expect)
                else
                  Result.map_error
                    (fun e -> "corrupt checkpoint: " ^ Ipc.error_to_string e)
                    (Ipc.decode (In_channel.input_all ic)))
end

(* --- the driver loop --- *)

(* Everything the in-order consumption loop needs, whether freshly
   gathered by [run] or loaded from a checkpoint by [resume]. Mutable
   fields are touched only by the driver, in submission order. *)
type st = {
  d_fuzzer : string;
  d_fuel : int;
  d_strategy : Strategy.t;
  d_reduce : bool;
  d_audit : int;  (* audit every [d_audit]-th case; 0 = off *)
  mutable d_specialized : int;
      (* compilations attributable to this campaign, synced from the
         process-wide counter by the driver before every checkpoint *)
  mutable d_cow_clones : int;   (* COW write-barrier journals, same protocol *)
  d_testbeds : Engines.Engine.testbed list;
  d_plan : Supervisor.Faultplan.t option;
  d_sup : Supervisor.t option;  (* Some iff supervision is on *)
  d_cases : Testcase.t list;
  mutable d_consumed : int;
  d_filter : Bugfilter.t;
  d_seen : (Engines.Registry.engine * Quirk.t, unit) Hashtbl.t;
  mutable d_discoveries : discovery list;  (* newest first *)
  mutable d_unattributed : int;
  mutable d_timeline : (int * int) list;   (* newest first *)
  d_screened_out : int;
  d_screen_reasons : (string * int) list;  (* sorted *)
  d_repaired : int;
  mutable d_skipped_cases : int;
  mutable d_aborted : string option;
  mutable d_stop : bool;  (* stop submitting further cases (pool exhausted) *)
}

(* What one worker hands back for one case. Unsupervised sweeps are judged
   on the worker (judging is pure without a supervisor — the pre-existing
   path, byte for byte); supervised sweeps defer judging to the driver so
   quarantine and the vote evolve in submission order. *)
type work =
  | W_judged of Difftest.case_report list
  | W_swept of Difftest.sweep list
  | W_failed of exn  (* the worker itself blew up: case failed-and-skipped *)

(* [work], flattened for the pipe to a forked worker: exceptions are not
   Marshal-safe, so worker failures travel as strings and an audit
   divergence — which must poison the whole run, not one case — as its
   own constructor the driver re-raises. *)
type wire =
  | Wire_judged of Difftest.case_report list
  | Wire_swept of Difftest.sweep list
  | Wire_failed of string
  | Wire_audit of string

let snapshot (d : st) : Checkpoint.state =
  {
    Checkpoint.ck_fuzzer = d.d_fuzzer;
    ck_fuel = d.d_fuel;
    ck_strategy = d.d_strategy;
    ck_reduce = d.d_reduce;
    ck_audit = d.d_audit;
    ck_specialized = d.d_specialized;
    ck_cow_clones = d.d_cow_clones;
    ck_testbeds = List.map Engines.Engine.testbed_id d.d_testbeds;
    ck_plan = Option.map Supervisor.Faultplan.to_spec d.d_plan;
    ck_cases = d.d_cases;
    ck_consumed = d.d_consumed;
    ck_filter = d.d_filter;
    ck_seen = Hashtbl.fold (fun k () acc -> k :: acc) d.d_seen [];
    ck_discoveries = d.d_discoveries;
    ck_unattributed = d.d_unattributed;
    ck_timeline = d.d_timeline;
    ck_screened_out = d.d_screened_out;
    ck_screen_reasons = d.d_screen_reasons;
    ck_repaired = d.d_repaired;
    ck_skipped_cases = d.d_skipped_cases;
    ck_supervisor = d.d_sup;
  }

let final (d : st) : result =
  {
    cp_fuzzer = d.d_fuzzer;
    cp_cases_run = d.d_consumed;
    cp_discoveries = List.rev d.d_discoveries;
    cp_filtered_repeats = Bugfilter.filtered_count d.d_filter;
    cp_unattributed = d.d_unattributed;
    cp_timeline = List.rev d.d_timeline;
    cp_screened_out = d.d_screened_out;
    cp_screen_reasons = d.d_screen_reasons;
    cp_repaired = d.d_repaired;
    cp_reach_seeded = 0;
    cp_specialized = d.d_specialized;
    cp_cow_clones = d.d_cow_clones;
    cp_ic_hits = 0;
    cp_skipped_cases = d.d_skipped_cases;
    cp_faults =
      (match d.d_sup with
      | Some s -> Supervisor.stats s
      | None -> Supervisor.zero_stats);
    cp_quarantined =
      (match d.d_sup with
      | Some s -> Supervisor.quarantine_list s
      | None -> []);
    cp_aborted = d.d_aborted;
  }

let drive ~workers ?worker_limits ?checkpoint ?halt_after (d : st) :
    result =
  (match checkpoint with
  | Some (_, every) when every <= 0 ->
      invalid_arg "Campaign: checkpoint interval must be positive"
  | _ -> ());
  let by_mode =
    [
      List.filter
        (fun tb -> tb.Engines.Engine.tb_mode = Engines.Engine.Normal)
        d.d_testbeds;
      List.filter
        (fun tb -> tb.Engines.Engine.tb_mode = Engines.Engine.Strict)
        d.d_testbeds;
    ]
    |> List.filter (fun l -> l <> [])
  in
  let total = List.length d.d_cases in
  (* compilation and COW accounting: the process-wide counters are
     shared by every campaign in the process, so the campaign's tally is
     a before/after delta, folded into [d] (on top of any checkpointed
     prior) before every snapshot and before the final result *)
  let specialized0 = Compile.specialized_count () in
  let cow0 = Value.cow_count () in
  let specialized_prior = d.d_specialized in
  let cow_prior = d.d_cow_clones in
  let sync_counters () =
    d.d_specialized <-
      specialized_prior + (Compile.specialized_count () - specialized0);
    d.d_cow_clones <- cow_prior + (Value.cow_count () - cow0)
  in
  let save_ck () =
    match checkpoint with
    | Some (path, _) ->
        sync_counters ();
        Checkpoint.save path (snapshot d);
        Some path
    | None -> None
  in
  (* The per-case differential sweep — the dominant cost — is [worker]
     below, run in-process or in a forked worker; every stateful stage
     here (judging under supervision, Fig. 6 tree, dedup, causal
     attribution, reduction, timeline, checkpointing) runs in the driver,
     in submission order, so the outcome is byte-identical at any worker
     count. *)
  let consume (i : int) (tc : Testcase.t) (w : work) =
    let reports =
      match w with
      | W_judged rs -> rs
      | W_swept sws ->
          List.map (fun sw -> Difftest.judge ?supervisor:d.d_sup sw) sws
      | W_failed _ ->
          d.d_skipped_cases <- d.d_skipped_cases + 1;
          []
    in
    (* one parse per case, shared by every deviation it produces *)
    let ast =
      lazy
        (match Jsparse.Parser.parse_program tc.Testcase.tc_source with
        | p -> Some p
        | exception Jsparse.Parser.Syntax_error _ -> None)
    in
    (* one execution-sharing cache and one probe memo per case, shared by
       every causal attribution the case's deviations trigger: probes for
       different deviations (and different removed quirks) of the same
       case collapse into shared class representatives instead of
       re-running the interpreter per probe. Built lazily — most cases
       produce no new bug and never pay for either. The worker's own
       sweep cache died with the worker; this one lives on the driver,
       where attribution runs. *)
    let attr_cache =
      lazy (Engines.Engine.Exec.cache tc.Testcase.tc_source)
    in
    let probe_memo : (string * Quirk.t * string, bool) Hashtbl.t =
      Hashtbl.create 8
    in
    List.iter
      (fun (report : Difftest.case_report) ->
        List.iter
          (fun (dev : Difftest.deviation) ->
            let tb = dev.Difftest.d_testbed in
            let engine = tb.Engines.Engine.tb_config.Engines.Registry.cfg_engine in
            let api =
              Run.Stage.time Run.Stage.attr (fun () ->
                  api_of_deviation dev tc ~ast)
            in
            (* developer-facing dedup: the Fig. 6 tree. A repeat of a
               known (engine, api, behaviour) leaf cannot yield a new
               discovery, so the expensive causal re-execution is
               skipped for it *)
            match
              Run.Stage.time Run.Stage.attr (fun () ->
                  Bugfilter.classify d.d_filter
                    ~engine:(Engines.Registry.engine_name engine)
                    ~api ~behavior:dev.Difftest.d_behavior)
            with
            | `Seen_before -> ()
            | `New_bug ->
            if Quirk.Set.is_empty dev.Difftest.d_fired then
              d.d_unattributed <- d.d_unattributed + 1
            else
              let causal =
                Run.Stage.time Run.Stage.attr (fun () ->
                    causal_quirks ~strategy:d.d_strategy
                      ~cache:(Lazy.force attr_cache) ~memo:probe_memo tb dev
                      ~fuel:d.d_fuel)
              in
              if causal = [] then d.d_unattributed <- d.d_unattributed + 1
              else
              List.iter
                (fun q ->
                  if not (Hashtbl.mem d.d_seen (engine, q)) then begin
                    Hashtbl.replace d.d_seen (engine, q) ();
                    let reduced =
                      if d.d_reduce then
                        Some
                          (Run.Stage.time Run.Stage.reduce (fun () ->
                               Reducer.reduce
                                 ~still_triggers:
                                   (Reducer.still_triggers_deviation
                                      ~strategy:d.d_strategy tb dev)
                                 tc.Testcase.tc_source))
                      else None
                    in
                    let disc =
                      {
                        disc_engine = engine;
                        disc_quirk = q;
                        disc_case = tc;
                        disc_reduced = reduced;
                        disc_kind = dev.Difftest.d_kind;
                        disc_behavior = dev.Difftest.d_behavior;
                        disc_at = i + 1;
                        disc_version =
                          Option.value
                            (Engines.Registry.earliest_version engine q)
                            ~default:
                              tb.Engines.Engine.tb_config
                                .Engines.Registry.cfg_version;
                        disc_mode = tb.Engines.Engine.tb_mode;
                      }
                    in
                    d.d_discoveries <- disc :: d.d_discoveries
                  end)
                causal)
          report.Difftest.cr_deviations)
      reports;
    d.d_timeline <- (i + 1, Hashtbl.length d.d_seen) :: d.d_timeline;
    d.d_consumed <- i + 1;
    (* pool-exhaustion abort: once no mode group retains two live
       testbeds, differential comparison is impossible and the campaign
       winds down (remaining in-flight results are discarded) *)
    (match d.d_sup with
    | Some sup when d.d_aborted = None ->
        let survivors tbs =
          List.length
            (List.filter
               (fun tb ->
                 not (Supervisor.quarantined sup (Engines.Engine.testbed_id tb)))
               tbs)
        in
        if List.for_all (fun tbs -> survivors tbs < 2) by_mode then begin
          d.d_aborted <-
            Some
              "testbed pool exhausted: quarantine left no mode group with \
               two live testbeds";
          d.d_stop <- true
        end
    | _ -> ());
    (match checkpoint with
    | Some (path, every) when (i + 1) mod every = 0 && i + 1 < total ->
        Run.Stage.time Run.Stage.fold (fun () ->
            sync_counters ();
            Checkpoint.save path (snapshot d))
    | _ -> ());
    match halt_after with
    | Some n when i + 1 >= n && i + 1 < total && not d.d_stop ->
        let ck = save_ck () in
        raise (Halted { halted_at = i + 1; halted_checkpoint = ck })
    | _ -> ()
  in
  let worker ((i, tc) : int * Testcase.t) : work =
    (* one execution-sharing cache per case, shared by the per-mode-group
       sweeps below: the base parses and their compilations run once
       per case instead of once per group. The cache is built and
       consumed entirely inside this worker call, and classes are keyed
       by mode, so reports are byte-identical to per-group caches. Lazy:
       audit cases build their own caches. *)
    let case_cache =
      lazy (Engines.Engine.Exec.cache tc.Testcase.tc_source)
    in
    match d.d_sup with
    | Some sup ->
        W_swept
          (List.map
             (fun tbs ->
               Difftest.sweep_case ~fuel:d.d_fuel ~strategy:d.d_strategy
                 ?plan:d.d_plan ~policy:(Supervisor.policy sup)
                 ~supervisor:sup ~case_key:i ~cache:(Lazy.force case_cache)
                 tbs tc)
             by_mode)
    | None ->
        (* cases are keyed by their submission index, so the audit sample
           is deterministic — the same cases are cross-checked at any
           worker count and across resume *)
        let audit = d.d_audit > 0 && i mod d.d_audit = 0 in
        W_judged
          (List.map
             (fun tbs ->
               if audit then Difftest.audit_case ~fuel:d.d_fuel tbs tc
               else
                 Difftest.run_case ~fuel:d.d_fuel ~strategy:d.d_strategy
                   ~cache:(Lazy.force case_cache) tbs tc)
             by_mode)
  in
  let items =
    List.filteri
      (fun k _ -> k >= d.d_consumed)
      (List.mapi (fun i tc -> (i, tc)) d.d_cases)
  in
  let use_workers = workers > 0 && Coordinator.available () in
  if not use_workers then begin
    (* In-process: one case at a time. A worker exception fails-and-skips
       its case (the supervised lane's poisoned work); [d_stop] is polled
       after each consume. *)
    let rec loop = function
      | [] -> ()
      | ((i, tc) as it) :: rest ->
          let w =
            match worker it with
            | w -> w
            (* an audit divergence is a soundness bug, never a fault to
               absorb — let it poison the run loudly *)
            | exception (Difftest.Audit_mismatch _ as e) -> raise e
            | exception e -> W_failed e
          in
          consume i tc w;
          if not d.d_stop then loop rest
    in
    loop items
  end
  else begin
    (* Process-isolated fan-out (DESIGN.md §14): same worker function and
       same in-submission-order consume, so the report is byte-identical
       to the in-process loop — but a segfaulting, hung or hard-killed
       execution now costs one child process, not the campaign. Runs in
       the child, so results cross a pipe as [wire]. *)
    let worker_wire (it : int * Testcase.t) : wire =
      match worker it with
      | W_judged rs -> Wire_judged rs
      | W_swept sws -> Wire_swept sws
      | W_failed e -> Wire_failed (Printexc.to_string e)
      | exception Difftest.Audit_mismatch m -> Wire_audit m
    in
    (* SIGINT/SIGTERM land between consumes: finish the case in hand,
       write a final checkpoint, and surface [Interrupted] so the
       operator kill is always resumable. Installed only around the
       multi-process phase; the previous behaviour is restored even if
       the run raises. *)
    let interrupted = ref None in
    let note_signal name = Sys.Signal_handle (fun _ -> interrupted := Some name) in
    let prev_int = Sys.signal Sys.sigint (note_signal "SIGINT") in
    let prev_term = Sys.signal Sys.sigterm (note_signal "SIGTERM") in
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigint prev_int;
        Sys.set_signal Sys.sigterm prev_term)
      (fun () ->
        try
          Coordinator.with_pool ~workers ?limits:worker_limits
            ~worker:worker_wire (fun pool ->
              Coordinator.run_ordered pool
                ~on_task_fail:(fun _ _ msg -> Wire_failed msg)
                ~stop:(fun () -> d.d_stop || !interrupted <> None)
                items
                ~consume:(fun _ (i, tc) w ->
                  let work =
                    match w with
                    | Wire_judged rs -> W_judged rs
                    | Wire_swept sws -> W_swept sws
                    | Wire_failed msg ->
                        W_failed (Failure ("worker: " ^ msg))
                    | Wire_audit m -> raise (Difftest.Audit_mismatch m)
                  in
                  consume i tc work))
        with Coordinator.Exhausted msg ->
          (* PR 5 pool-exhaustion semantics: partial report, marked
             aborted, non-zero CLI exit — never a crash *)
          if d.d_aborted = None then
            d.d_aborted <- Some ("worker pool exhausted: " ^ msg));
    match !interrupted with
    | Some name ->
        let ck = save_ck () in
        raise (Interrupted { int_signal = name; int_at = d.d_consumed; int_checkpoint = ck })
    | None -> ()
  end;
  sync_counters ();
  (* final checkpoint: resuming a finished campaign is a cheap no-op that
     reproduces its result *)
  Run.Stage.time Run.Stage.fold (fun () ->
      ignore (save_ck ());
      final d)

let run ?(testbeds = default_testbeds ()) ?(budget = 200)
    ?(fuel = Difftest.campaign_fuel) ?(reduce = false) ?(screen = true)
    ?(workers = Coordinator.default_workers ()) ?worker_limits ?strategy
    ?(audit = 0) ?faults ?policy ?checkpoint ?halt_after (fz : fuzzer) :
    result =
  let strategy = Strategy.value strategy in
  let plan =
    match faults with Some _ -> faults | None -> Supervisor.Faultplan.from_env ()
  in
  let supervised = Option.is_some plan || Option.is_some policy in
  if audit > 0 && supervised then
    invalid_arg
      "Campaign.run: audit cannot be combined with fault injection or \
       supervision";
  let sup = if supervised then Some (Supervisor.create ?policy ()) else None in
  let aborted = ref None in
  (* a fuzzer that dies (e.g. the generator's refill cap) aborts the
     campaign gracefully: whatever was gathered still runs, the report is
     marked aborted, and the CLI exits non-zero *)
  let batch n =
    match Run.Stage.time Run.Stage.generate (fun () -> fz.fz_batch n) with
    | l -> l
    | exception e ->
        aborted := Some ("fuzzer exhausted: " ^ Printexc.to_string e);
        []
  in
  let screened_out = ref 0 in
  let repaired = ref 0 in
  let reasons : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let drop reason =
    incr screened_out;
    Hashtbl.replace reasons reason
      (1 + Option.value (Hashtbl.find_opt reasons reason) ~default:0)
  in
  (* gather [budget] screen-surviving cases, drawing replacements for the
     dropped ones so the execution budget is spent in full; a stall
     counter bounds the extra draws in case the fuzzer only produces
     droppable programs *)
  let cases =
    if not screen then batch budget
    else begin
      let kept = ref [] in
      let n_kept = ref 0 in
      let stalls = ref 0 in
      while !n_kept < budget && !stalls < 3 && !aborted = None do
        let want = budget - !n_kept in
        let progressed = ref false in
        List.iter
          (fun tc ->
            if !n_kept < budget then
              match Run.Stage.time Run.Stage.screen (fun () -> screen_case tc) with
              | S_kept tc ->
                  kept := tc :: !kept; incr n_kept; progressed := true
              | S_repaired tc ->
                  kept := tc :: !kept; incr n_kept; incr repaired;
                  progressed := true
              | S_dropped reason -> drop reason)
          (batch want);
        if !progressed then stalls := 0 else incr stalls
      done;
      List.rev !kept
    end
  in
  (if !aborted = None then
     let got = List.length cases in
     if got < budget then
       aborted :=
         Some
           (Printf.sprintf "fuzzer exhausted: gathered %d of %d budgeted cases"
              got budget));
  let d =
    {
      d_fuzzer = fz.fz_name;
      d_fuel = fuel;
      d_strategy = strategy;
      d_reduce = reduce;
      d_audit = audit;
      d_specialized = 0;
      d_cow_clones = 0;
      d_testbeds = testbeds;
      d_plan = plan;
      d_sup = sup;
      d_cases = cases;
      d_consumed = 0;
      d_filter = Bugfilter.create ();
      d_seen = Hashtbl.create 64;
      d_discoveries = [];
      d_unattributed = 0;
      d_timeline = [];
      d_screened_out = !screened_out;
      d_screen_reasons =
        Hashtbl.fold (fun r n acc -> (r, n) :: acc) reasons []
        |> List.sort (fun (a, _) (b, _) -> compare a b);
      d_repaired = !repaired;
      d_skipped_cases = 0;
      d_aborted = !aborted;
      d_stop = false;
    }
  in
  drive ~workers ?worker_limits ?checkpoint ?halt_after d

let resume ?(workers = Coordinator.default_workers ()) ?worker_limits
    ?checkpoint ?halt_after (ck : Checkpoint.state) : result =
  let testbeds =
    List.map
      (fun id ->
        match Engines.Engine.testbed_of_id id with
        | Some tb -> tb
        | None ->
            invalid_arg
              ("Campaign.resume: checkpoint names unknown testbed " ^ id))
      ck.Checkpoint.ck_testbeds
  in
  let plan =
    match ck.Checkpoint.ck_plan with
    | None -> None
    | Some spec -> (
        match Supervisor.Faultplan.of_spec spec with
        | Ok p -> Some p
        | Error e ->
            invalid_arg ("Campaign.resume: bad fault plan in checkpoint: " ^ e))
  in
  let seen : (Engines.Registry.engine * Quirk.t, unit) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter (fun k -> Hashtbl.replace seen k ()) ck.Checkpoint.ck_seen;
  let d =
    {
      d_fuzzer = ck.Checkpoint.ck_fuzzer;
      d_fuel = ck.Checkpoint.ck_fuel;
      d_strategy = ck.Checkpoint.ck_strategy;
      d_reduce = ck.Checkpoint.ck_reduce;
      d_audit = ck.Checkpoint.ck_audit;
      d_specialized = ck.Checkpoint.ck_specialized;
      d_cow_clones = ck.Checkpoint.ck_cow_clones;
      d_testbeds = testbeds;
      d_plan = plan;
      d_sup = ck.Checkpoint.ck_supervisor;
      d_cases = ck.Checkpoint.ck_cases;
      d_consumed = ck.Checkpoint.ck_consumed;
      d_filter = ck.Checkpoint.ck_filter;
      d_seen = seen;
      d_discoveries = ck.Checkpoint.ck_discoveries;
      d_unattributed = ck.Checkpoint.ck_unattributed;
      d_timeline = ck.Checkpoint.ck_timeline;
      d_screened_out = ck.Checkpoint.ck_screened_out;
      d_screen_reasons = ck.Checkpoint.ck_screen_reasons;
      d_repaired = ck.Checkpoint.ck_repaired;
      d_skipped_cases = ck.Checkpoint.ck_skipped_cases;
      d_aborted = None;
      d_stop = false;
    }
  in
  drive ~workers ?worker_limits ?checkpoint ?halt_after d
