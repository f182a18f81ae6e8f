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

(* --- the driver state and its checkpoint --- *)

(* Everything the in-order consumption loop needs, whether freshly
   gathered by [run] or loaded from a checkpoint by [resume]: a
   checkpoint is this record itself. Mutable fields are touched only by
   the driver, in submission order. *)
type st = {
  d_fuzzer : string;
  d_fuel : int;
  d_strategy : Strategy.t;
  d_reduce : bool;
  d_audit : int;  (* audit every [d_audit]-th case; 0 = off *)
  mutable d_counts : int array;
      (* this campaign's share of every [Cutil.Counter] count, brought up
         to date by the driver before every checkpoint and the result *)
  d_testbeds : Engines.Engine.testbed list;  (* sweep order *)
  d_plan : Supervisor.Faultplan.t option;
  d_sup : Supervisor.t option;  (* Some iff supervision is on *)
  d_cases : Testcase.t list;    (* the full drawn case list *)
  mutable d_consumed : int;     (* cases fully consumed, in order *)
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
      (* fuzzer ran dry at gather time, or quarantine exhausted the pool *)
  mutable d_stop : bool;  (* stop consuming further cases (pool exhausted) *)
}

module Checkpoint = struct
  (* A checkpoint is a versioned header line followed by one [Ipc] frame
     (length, FNV-1a64 checksum, [Marshal] payload) holding the driver
     record [st] itself, so a torn, truncated or bit-flipped file is
     refused before anything is unmarshalled. Everything in it is data —
     values, records and hashtables (Testcase.t, testbeds, the fault
     plan, Bugfilter.t, Supervisor.t) — with no closures, so the default
     marshal flags suffice and the file survives process restarts of the
     same binary.

     There is no separate RNG cursor: the campaign's only random draws
     (the fuzzer batch, screening replacements) all happen before the
     first case executes, so storing the fully-drawn case list together
     with the consumed count replays the exact remaining cases on
     resume. *)

  let magic = "COMFORT-CKPT"

  (* v2: added the static reachability analysis' switches and its
     seeded-share tally. v3: added the specialisation switches and
     counters (quirk-specialised execution). v4: the state is framed and
     checksummed ([Ipc.encode]) instead of a bare [Marshal]. v5: the
     seven per-layer switches and audit strides became one strategy and
     one audit stride. v6: dropped the seeded-share and inline-cache
     tallies with the mechanisms they counted. v7: quirk sets are
     two-word bitsets, and the supervisor is stored as itself rather
     than as a frozen copy. v8: the driver record is stored as itself —
     testbeds, fault plan and seen table included — and with it the
     early end ([d_aborted], [d_stop]). v9: the compilation and COW
     tallies became one vector of every registered counter. The header
     check rejects older files rather than guess defaults for fields
     that change what a resumed campaign runs. *)
  let version = 9

  type state = st

  let consumed (st : state) = st.d_consumed
  let total (st : state) = List.length st.d_cases

  let describe (st : state) =
    Printf.sprintf "%s: %d/%d cases consumed, %d discoveries"
      st.d_fuzzer st.d_consumed (total st)
      (List.length st.d_discoveries)

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

(* What one worker hands back for one case, in-process or across the
   pipe from a forked worker (so plain data: exceptions are not
   Marshal-safe). Unsupervised sweeps are judged on the worker (judging
   is pure without a supervisor); supervised sweeps defer judging to the
   driver so quarantine and the vote evolve in submission order. *)
type work =
  | W_judged of Difftest.case_report list
  | W_swept of Difftest.sweep list
  | W_failed of string  (* the worker itself blew up: case failed-and-skipped *)
  | W_audit of string
      (* an audit divergence: a soundness bug that must poison the whole
         run, not one case — the driver re-raises it *)

let final (d : st) ~(aborted : string option) : result =
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
    cp_specialized = Cutil.Counter.at d.d_counts Compile.specialized;
    cp_cow_clones = Cutil.Counter.at d.d_counts Value.cow_clones;
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
    cp_aborted = aborted;
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
  (* the registry's counts are shared by every campaign in the process,
     so the campaign's share is the checkpointed prior plus this run's
     delta *)
  let prior = d.d_counts in
  let counts0 = Cutil.Counter.snapshot () in
  let tally () =
    d.d_counts <- Array.map2 ( + ) prior (Cutil.Counter.since counts0)
  in
  let save_ck () =
    match checkpoint with
    | Some (path, _) ->
        tally ();
        Checkpoint.save path d;
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
      | W_audit m -> raise (Difftest.Audit_mismatch m)
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
    | Some (_, every) when (i + 1) mod every = 0 && i + 1 < total ->
        Run.Stage.time Run.Stage.fold (fun () -> ignore (save_ck ()))
    | _ -> ());
    match halt_after with
    | Some n when i + 1 >= n && i + 1 < total && not d.d_stop ->
        let ck = save_ck () in
        raise (Halted { halted_at = i + 1; halted_checkpoint = ck })
    | _ -> ()
  in
  let sweep ((i, tc) : int * Testcase.t) : work =
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
                 ?plan:d.d_plan ~supervisor:sup ~case_key:i
                 ~cache:(Lazy.force case_cache) tbs tc)
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
  (* runs in the forked child too: a failure travels as its message *)
  let worker (it : int * Testcase.t) : work =
    match sweep it with
    | w -> w
    | exception Difftest.Audit_mismatch m -> W_audit m
    | exception e -> W_failed (Printexc.to_string e)
  in
  let items =
    List.filteri
      (fun k _ -> k >= d.d_consumed)
      (List.mapi (fun i tc -> (i, tc)) d.d_cases)
  in
  (* A worker-pool exhaustion ends this run only: it is kept out of [d],
     so the final checkpoint resumes the remaining cases on a fresh
     pool. *)
  let pool_exhausted = ref None in
  let use_workers = workers > 0 && Coordinator.available () in
  if not use_workers then begin
    (* In-process: one case at a time. [d_stop] is tested before each
       case, so a resumed pool-exhausted campaign runs none. *)
    let rec loop = function
      | ((i, tc) as it) :: rest when not d.d_stop ->
          consume i tc (worker it);
          loop rest
      | _ -> ()
    in
    loop items
  end
  else begin
    (* Process-isolated fan-out (DESIGN.md §14): same worker function and
       same in-submission-order consume, so the report is byte-identical
       to the in-process loop — but a segfaulting, hung or hard-killed
       execution now costs one child process, not the campaign.
       SIGINT/SIGTERM land between consumes: finish the case in hand,
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
        (* children inherit shared immutable state copy-on-write; force
           the expensive lazies now so each child doesn't rebuild them *)
        ignore (Lazy.force Specdb.Db.standard);
        ignore (Lazy.force Lm.Model.comfort);
        try
          Coordinator.with_pool ~workers ?limits:worker_limits ~worker
            (fun pool ->
              Coordinator.run_ordered pool
                ~on_task_fail:(fun _ _ msg -> W_failed msg)
                ~stop:(fun () -> d.d_stop || !interrupted <> None)
                items
                ~consume:(fun _ (i, tc) w -> consume i tc w))
        with Coordinator.Exhausted msg ->
          (* partial report, marked aborted, non-zero CLI exit — never a
             crash *)
          pool_exhausted := Some ("worker pool exhausted: " ^ msg));
    match !interrupted with
    | Some name ->
        let ck = save_ck () in
        raise (Interrupted { int_signal = name; int_at = d.d_consumed; int_checkpoint = ck })
    | None -> ()
  end;
  tally ();
  (* final checkpoint: resuming a finished campaign is a cheap no-op that
     reproduces its result *)
  Run.Stage.time Run.Stage.fold (fun () ->
      ignore (save_ck ());
      final d
        ~aborted:
          (match d.d_aborted with None -> !pool_exhausted | a -> a))

let run ?(testbeds = default_testbeds ()) ?(budget = 200)
    ?(fuel = Difftest.campaign_fuel) ?(reduce = false) ?(screen = true)
    ?(workers = Coordinator.default_workers ()) ?worker_limits ?strategy
    ?(audit = 0) ?faults ?checkpoint ?halt_after (fz : fuzzer) :
    result =
  let strategy = Strategy.value strategy in
  let plan =
    match faults with Some _ -> faults | None -> Supervisor.Faultplan.from_env ()
  in
  if audit > 0 && Option.is_some plan then
    invalid_arg "Campaign.run: audit cannot be combined with fault injection";
  let sup = Option.map (fun _ -> Supervisor.create ()) plan in
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
      d_counts = Array.map (Fun.const 0) (Cutil.Counter.snapshot ());
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
    ?checkpoint ?halt_after (d : Checkpoint.state) : result =
  drive ~workers ?worker_limits ?checkpoint ?halt_after d
