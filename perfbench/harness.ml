(* Campaign benchmark harness.

   Every invocation is one fresh process running one workload, so set-up
   time and peak RSS belong to that workload alone and the fork pool never
   meets a spawned domain. Subcommands:

     setup  --workload W --seeds N
         set up once and report the set-up time;
     run    --workload W --seeds N,.. --seconds S [--expect HEX,..]
         set up, then cycle through one fixed-budget campaign per seed
         until S seconds have passed, checking every pass's report
         against the digest expected for its seed;
     trace  --workload W --seeds N --seconds S --out DIR [--expect HEX]
         the per-layer numbers: a few untraced passes, one profiled
         campaign, then an instrumented replay of that campaign's case
         stream through each layer's public functions, with the spans
         written to DIR;
     digest --workload W --seeds N
         one campaign's report digest (recorded on the reference path).

   [--budget B] overrides the workload's cases per campaign; a digest
   recorded at one budget does not hold at another.

   The last line of stdout is one JSON object that run.py turns into the
   benchmark's result. The harness calls only the library's public API,
   adds no probe to it, and passes [Campaign.run] nothing but the
   testbeds, budget, [reduce] and [workers]. *)

let t_start = Unix.gettimeofday ()

module C = Comfort.Campaign

let now = Unix.gettimeofday

type workload = {
  w_name : string;
  w_fuzzer : int -> C.fuzzer;
  w_testbeds : Engines.Engine.testbed list;
  w_reduce : bool;
  w_workers : int;
  w_budget : int;  (** cases per campaign pass *)
}

let comfort seed = C.comfort_fuzzer ~seed ()

let workloads =
  [
    {
      w_name = "comfort-102";
      w_fuzzer = comfort;
      w_testbeds = Engines.Engine.all_testbeds;
      w_reduce = true;
      w_workers = 0;
      w_budget = 600;
    };
    {
      w_name = "comfort-latest10";
      w_fuzzer = comfort;
      w_testbeds = Engines.Engine.latest_testbeds ~mode:Engines.Engine.Normal ();
      w_reduce = false;
      w_workers = 0;
      w_budget = 1500;
    };
    {
      w_name = "fuzzilli-102";
      w_fuzzer = (fun seed -> Baselines.Fuzzers.fuzzilli ~seed ());
      w_testbeds = Engines.Engine.all_testbeds;
      w_reduce = false;
      w_workers = 0;
      w_budget = 600;
    };
    {
      w_name = "comfort-102-w2";
      w_fuzzer = comfort;
      w_testbeds = Engines.Engine.all_testbeds;
      w_reduce = true;
      w_workers = 2;
      w_budget = 600;
    };
  ]

(* ---------- JSON output ---------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let json_list items = "[" ^ String.concat ", " items ^ "]"

(* ---------- measurement helpers ---------- *)

(* user + system CPU of this process and of every child it has reaped —
   forked campaign workers are reaped when their pool shuts down *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime
  +. t.Unix.tms_cstime

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A fixed workload outside the code under test (hashing, allocation and
   sorting in the OCaml runtime), timed next to every campaign pass. A
   shared host's speed drifts by up to a fifth over minutes, more than
   repetition inside one run averages out; run.py divides that drift
   out with this kernel's time. *)
let calibration_s () =
  let t0 = now () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 39_999 do
    Hashtbl.replace h (string_of_int (i * 7919)) i
  done;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] in
  ignore (Sys.opaque_identity (List.sort compare l));
  now () -. t0

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Float.of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ())

(* Everything the campaign's deterministic report says, in a fixed order:
   each discovery's engine, quirk, case index, behaviour and mode, then the
   timeline, the filtered repeats and the screen counters. *)
let digest (r : C.result) =
  let b = Buffer.create 8192 in
  List.iter
    (fun (d : C.discovery) ->
      Printf.bprintf b "D|%s|%s|%d|%s|%s\n"
        (Engines.Registry.engine_name d.C.disc_engine)
        (Jsinterp.Quirk.to_string d.C.disc_quirk)
        d.C.disc_at d.C.disc_behavior
        (Engines.Engine.mode_to_string d.C.disc_mode))
    r.C.cp_discoveries;
  List.iter (fun (c, n) -> Printf.bprintf b "T|%d|%d\n" c n) r.C.cp_timeline;
  Printf.bprintf b "F|%d\nS|%d|%d\n" r.C.cp_filtered_repeats
    r.C.cp_screened_out r.C.cp_repaired;
  List.iter
    (fun (reason, n) -> Printf.bprintf b "R|%s|%d\n" reason n)
    r.C.cp_screen_reasons;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* cases skipped by failed workers plus cases an abort left unreached *)
let failed_cases ~budget (r : C.result) =
  r.C.cp_skipped_cases + (budget - r.C.cp_cases_run)

(* LM training, the spec DB and the realm template are built on first
   use; forcing them here, before the first case, is what set-up means *)
let setup w seed =
  ignore (Lazy.force Lm.Model.comfort);
  ignore (Lazy.force Specdb.Db.standard);
  ignore (Engines.Engine.run_reference "var a = [1, 2]; print(a.length);");
  let fz = w.w_fuzzer seed in
  (fz, now () -. t_start)

let campaign w ~budget fz =
  C.run ~testbeds:w.w_testbeds ~budget ~reduce:w.w_reduce
    ~workers:w.w_workers fz

type pass = {
  p_calib : float;  (** calibration kernel time just before the pass *)
  p_wall : float;
  p_cpu : float;
  p_cases : int;
  p_bugs : int;
  p_failed : int;
  p_digest : string;
  p_digest_ok : bool;
}

let timed_pass w ~budget ~expect fz =
  let calib = calibration_s () in
  let c0 = cpu_s () in
  let t0 = now () in
  let r = campaign w ~budget fz in
  let wall = now () -. t0 in
  let cpu = cpu_s () -. c0 in
  let dg = digest r in
  let ok = match expect with None -> true | Some e -> String.equal e dg in
  {
    p_calib = calib;
    p_wall = wall;
    p_cpu = cpu;
    p_cases = r.C.cp_cases_run;
    p_bugs = List.length r.C.cp_discoveries;
    p_failed = (if ok then failed_cases ~budget r else budget);
    p_digest = dg;
    p_digest_ok = ok;
  }

let pass_json p =
  json_obj
    [
      ("calib_s", json_float p.p_calib);
      ("wall_s", json_float p.p_wall);
      ("cpu_s", json_float p.p_cpu);
      ("cases", string_of_int p.p_cases);
      ("bugs", string_of_int p.p_bugs);
      ("failed", string_of_int p.p_failed);
      ("digest", json_string p.p_digest);
      ("digest_ok", string_of_bool p.p_digest_ok);
    ]

let host_fields () =
  [
    ("domains", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", json_string Sys.ocaml_version);
  ]

(* Cycle through the workload's campaigns, one pass per seed, until
   [seconds] have passed and at least [min_cycles] cycles ran, so run.py
   can take a median per seed. The first pass uses the fuzzer built
   during set-up; every later pass gets a fresh one, built outside the
   timed region. *)
let passes w ~runs ~budget ~seconds ~min_cycles fz0 =
  let t_end = now () +. seconds in
  let runs = Array.of_list runs in
  let min_passes = min_cycles * Array.length runs in
  let rec go acc n fz =
    if n >= min_passes && now () >= t_end then List.rev acc
    else
      let seed, expect = runs.(n mod Array.length runs) in
      let fz = match fz with Some fz -> fz | None -> w.w_fuzzer seed in
      let p = timed_pass w ~budget ~expect fz in
      go ((seed, p) :: acc) (n + 1) None
  in
  go [] 0 (Some fz0)

let run_mode w ~runs ~seconds ~budget =
  let fz, setup_s = setup w (fst (List.hd runs)) in
  let ps = passes w ~runs ~budget ~seconds ~min_cycles:2 fz in
  json_obj
    ([
       ("mode", json_string "run");
       ("workload", json_string w.w_name);
       ("budget", string_of_int budget);
       ("setup_s", json_float setup_s);
       ("peak_rss_mb", json_float (peak_rss_mb ()));
       ( "passes",
         json_list
           (List.map
              (fun (seed, p) ->
                json_obj [ ("seed", string_of_int seed); ("pass", pass_json p) ])
              ps) );
     ]
    @ host_fields ())

let setup_mode w ~seed =
  let _, setup_s = setup w seed in
  let calib = median (List.init 5 (fun _ -> calibration_s ())) in
  json_obj
    [
      ("mode", json_string "setup");
      ("setup_s", json_float setup_s);
      ("calib_s", json_float calib);
    ]

let digest_mode w ~seed ~budget =
  let fz, _ = setup w seed in
  let t0 = now () in
  let r = campaign w ~budget fz in
  json_obj
    [
      ("mode", json_string "digest");
      ("workload", json_string w.w_name);
      ("seed", string_of_int seed);
      ("budget", string_of_int budget);
      ("digest", json_string (digest r));
      ("bugs", string_of_int (List.length r.C.cp_discoveries));
      ("failed", string_of_int (failed_cases ~budget r));
      ("wall_s", json_float (now () -. t0));
    ]

(* ---------- tracing ---------- *)

(* One span per call into a layer, kept in memory until the run ends.
   Spans of one case share its index; [parent] is the enclosing span's
   id, or -1 for a root. *)
type span = {
  s_id : int;
  s_layer : string;
  s_case : int;
  s_start : float;
  s_end : float;
  s_parent : int;
}

let spans : span list ref = ref []
let next_span = ref 0

let span ?(parent = -1) layer case f =
  let id = !next_span in
  incr next_span;
  let t0 = now () in
  let r = f id in
  spans :=
    { s_id = id; s_layer = layer; s_case = case; s_start = t0; s_end = now ();
      s_parent = parent }
    :: !spans;
  r

(* A layer's self time: each span's duration minus the time its child
   spans cover, summed per layer, in seconds. *)
let self_times (all : span list) =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.s_parent >= 0 then
        Hashtbl.replace covered s.s_parent
          (s.s_end -. s.s_start
          +. Option.value (Hashtbl.find_opt covered s.s_parent) ~default:0.0))
    all;
  let per_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.s_end -. s.s_start
        -. Option.value (Hashtbl.find_opt covered s.s_id) ~default:0.0
      in
      Hashtbl.replace per_layer s.s_layer
        (self
        +. Option.value (Hashtbl.find_opt per_layer s.s_layer) ~default:0.0))
    all;
  fun layer -> Option.value (Hashtbl.find_opt per_layer layer) ~default:0.0

let write_spans ~dir ~stem (all : span list) =
  let t0 = match all with s :: _ -> s.s_start | [] -> 0.0 in
  let us t = (t -. t0) *. 1e6 in
  let jsonl = Filename.concat dir (stem ^ ".spans.jsonl") in
  let oc = open_out jsonl in
  List.iter
    (fun s ->
      output_string oc
        (json_obj
           [
             ("id", string_of_int s.s_id);
             ("layer", json_string s.s_layer);
             ("case", string_of_int s.s_case);
             ("start_us", json_float (us s.s_start));
             ("end_us", json_float (us s.s_end));
             ("parent", string_of_int s.s_parent);
           ]);
      output_char oc '\n')
    all;
  close_out oc;
  let chrome = Filename.concat dir (stem ^ ".trace.json") in
  let oc = open_out chrome in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc
        (json_obj
           [
             ("name", json_string s.s_layer);
             ("cat", json_string "replay");
             ("ph", json_string "X");
             ("ts", json_float (us s.s_start));
             ("dur", json_float ((s.s_end -. s.s_start) *. 1e6));
             ("pid", "1");
             ("tid", "1");
             ( "args",
               json_obj
                 [
                   ("case", string_of_int s.s_case);
                   ("id", string_of_int s.s_id);
                   ("parent", string_of_int s.s_parent);
                 ] );
           ]))
    all;
  output_string oc "\n]}\n";
  close_out oc

(* IPC replay: each case's reports cross a pipe as one [Ipc] frame, the
   way a forked worker's reply does. A reader thread drains the pipe so a
   frame larger than the pipe buffer cannot deadlock the writer. *)
type ipc_link = {
  l_write : Unix.file_descr;
  l_replies : (Comfort.Difftest.case_report list, Comfort.Ipc.error) result Event.channel;
  l_reader : Thread.t;
}

let ipc_open () =
  let rfd, wfd = Unix.pipe ~cloexec:true () in
  let replies = Event.new_channel () in
  let rec drain () =
    match Comfort.Ipc.read rfd with
    | Error Comfort.Ipc.Closed -> Unix.close rfd
    | reply ->
        Event.sync (Event.send replies reply);
        drain ()
  in
  { l_write = wfd; l_replies = replies; l_reader = Thread.create drain () }

let ipc_roundtrip l reports =
  Comfort.Ipc.write l.l_write reports;
  match Event.sync (Event.receive l.l_replies) with
  | Ok back -> List.length back = List.length reports
  | Error _ -> false

let ipc_close l =
  Unix.close l.l_write;
  Thread.join l.l_reader

type replay = {
  rp_cases : Comfort.Testcase.t array;
  rp_dropped : int;
  rp_repaired : int;
  rp_screened : int;
  rp_executed : int;
  rp_shared : int;
  rp_ipc_bytes : int;
  rp_ipc_ok : bool;
}

(* Replay the campaign's case stream: the same fuzzer and seed, screened
   one draw at a time as [Campaign.run]'s screen loop does, and each kept
   case parsed, swept per mode group, voted and shipped over the IPC
   pipe, with a span around every call. *)
let replay w ~seed ~budget =
  let fz = w.w_fuzzer seed in
  let by_mode =
    List.filter
      (fun l -> l <> [])
      (List.map
         (fun m ->
           List.filter (fun tb -> tb.Engines.Engine.tb_mode = m) w.w_testbeds)
         [ Engines.Engine.Normal; Engines.Engine.Strict ])
  in
  let pending = ref [] in
  let dropped = ref 0 and repaired = ref 0 and screened = ref 0 in
  let executed = ref 0 and shared = ref 0 in
  let ipc_bytes = ref 0 and ipc_ok = ref true in
  let link = ipc_open () in
  let cases =
    Array.init budget (fun i ->
        span "case" i (fun root ->
            let rec draw stalls =
              if stalls > 20 then failwith "replay: the fuzzer stopped producing cases";
              match !pending with
              | [] ->
                  pending := span ~parent:root "generator" i (fun _ -> fz.C.fz_batch 1);
                  draw (stalls + 1)
              | tc :: rest -> (
                  pending := rest;
                  incr screened;
                  match
                    span ~parent:root "analysis.screen" i (fun _ -> C.screen_case tc)
                  with
                  | C.S_kept tc -> tc
                  | C.S_repaired tc ->
                      incr repaired;
                      tc
                  | C.S_dropped _ ->
                      incr dropped;
                      draw 0)
            in
            let tc = draw 0 in
            let src = tc.Comfort.Testcase.tc_source in
            span ~parent:root "jsparse.parse" i (fun _ ->
                try ignore (Jsparse.Parser.parse_program src)
                with Jsparse.Parser.Syntax_error _ -> ());
            let sweeps =
              span ~parent:root "engines.sweep" i (fun _ ->
                  let cache = Engines.Engine.Exec.cache src in
                  let sws =
                    List.map
                      (fun tbs ->
                        Comfort.Difftest.sweep_case ~fuel:Comfort.Difftest.campaign_fuel
                          ~cache tbs tc)
                      by_mode
                  in
                  let e, s = Engines.Engine.Exec.stats cache in
                  executed := !executed + e;
                  shared := !shared + s;
                  sws)
            in
            let reports =
              span ~parent:root "difftest.vote" i (fun _ ->
                  List.map (fun sw -> Comfort.Difftest.judge sw) sweeps)
            in
            ipc_bytes := !ipc_bytes + String.length (Marshal.to_string reports []);
            if not (span ~parent:root "ipc.roundtrip" i (fun _ -> ipc_roundtrip link reports))
            then ipc_ok := false;
            tc))
  in
  ipc_close link;
  {
    rp_cases = cases;
    rp_dropped = !dropped;
    rp_repaired = !repaired;
    rp_screened = !screened;
    rp_executed = !executed;
    rp_shared = !shared;
    rp_ipc_bytes = !ipc_bytes;
    rp_ipc_ok = !ipc_ok;
  }

(* LM layer on its own: programs sampled from a generator with the
   workload's seed, timed per sample, tokens counted by the model's own
   encoder. Returns ns per token. *)
let lm_probe ~seed ~samples =
  let model = Lazy.force Lm.Model.comfort in
  let g = Comfort.Generator.create ~seed () in
  let tokens = ref 0 in
  for i = 0 to samples - 1 do
    let src = span "lm.sample" i (fun _ -> Comfort.Generator.sample_program g) in
    tokens := !tokens + List.length (Lm.Model.encode model src)
  done;
  fun total_s -> total_s *. 1e9 /. Float.of_int (max 1 !tokens)

let trace_mode w ~seed ~seconds ~budget ~expect ~out =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let fz, _ = setup w seed in
  (* untraced passes first: their median wall is what the traced
     campaign's overhead is measured against *)
  let untraced =
    List.map snd
      (passes w ~runs:[ (seed, expect) ] ~budget ~seconds:(seconds /. 2.0)
         ~min_cycles:3 fz)
  in
  List.iter
    (fun p -> if not p.p_digest_ok then fail "untraced pass: report digest mismatch")
    untraced;
  let open Jsinterp in
  let fz = w.w_fuzzer seed in
  let runs0 = Run.run_count () and parses0 = Jsparse.Parser.parse_count () in
  let respawns0 = Comfort.Coordinator.stat_respawns ()
  and hangs0 = Comfort.Coordinator.stat_hangs () in
  let gc0 = Gc.quick_stat () and alloc0 = Gc.allocated_bytes () in
  Run.Stage.enabled := true;
  Run.Stage.reset ();
  let t0 = now () in
  let r = campaign w ~budget fz in
  let wall = now () -. t0 in
  let profile = Comfort.Metrics.profile ~wall_ns:(int_of_float (wall *. 1e9)) in
  Run.Stage.enabled := false;
  let alloc = Gc.allocated_bytes () -. alloc0 and gc1 = Gc.quick_stat () in
  let runs = Run.run_count () - runs0
  and parses = Jsparse.Parser.parse_count () - parses0 in
  let respawns = Comfort.Coordinator.stat_respawns () - respawns0
  and hangs = Comfort.Coordinator.stat_hangs () - hangs0 in
  let dg = digest r in
  (match expect with
  | Some e when not (String.equal e dg) -> fail "traced campaign: report digest mismatch"
  | _ -> ());
  if failed_cases ~budget r > 0 then fail "traced campaign: %d failed cases" (failed_cases ~budget r);
  let rp = replay w ~seed ~budget in
  let lm_ns_per_token = lm_probe ~seed ~samples:200 in
  (* the replay must have carried the campaign's own traffic, or the
     per-layer numbers describe something else *)
  if rp.rp_dropped <> r.C.cp_screened_out || rp.rp_repaired <> r.C.cp_repaired then
    fail "replay screen counters (%d dropped, %d repaired) differ from the campaign's (%d, %d)"
      rp.rp_dropped rp.rp_repaired r.C.cp_screened_out r.C.cp_repaired;
  List.iter
    (fun (d : C.discovery) ->
      let i = d.C.disc_at - 1 in
      if i < 0 || i >= Array.length rp.rp_cases
         || not (String.equal rp.rp_cases.(i).Comfort.Testcase.tc_source
                   d.C.disc_case.Comfort.Testcase.tc_source)
      then fail "discovery at case %d is not the replayed case" d.C.disc_at)
    r.C.cp_discoveries;
  if not rp.rp_ipc_ok then fail "IPC replay: a frame did not survive the round trip";
  let all = List.rev !spans in
  write_spans ~dir:out ~stem:(Printf.sprintf "%s-seed%d" w.w_name seed) all;
  let self = self_times all in
  let cases = Float.of_int (max 1 r.C.cp_cases_run) in
  let per_case x = x /. cases in
  let us_per_case s = per_case (s *. 1e6) in
  let row rows name =
    match List.find_opt (fun x -> x.Comfort.Metrics.st_name = name) rows with
    | Some x -> Float.of_int x.Comfort.Metrics.st_ns /. 1e9
    | None -> 0.0
  in
  let stages =
    List.map
      (fun n ->
        (Printf.sprintf "stage.%s.us_per_case" n,
         us_per_case (row profile.Comfort.Metrics.pr_stages n)))
      [ "generate"; "screen"; "sweep"; "vote"; "attr"; "reduce"; "fold" ]
  in
  let substages =
    List.map
      (fun n ->
        (Printf.sprintf "jsinterp.%s.us_per_case" n,
         us_per_case (row profile.Comfort.Metrics.pr_substages n)))
      [ "parse"; "compile"; "realm"; "exec" ]
  in
  let discs = r.C.cp_discoveries in
  let reduced_pairs =
    List.filter_map
      (fun (d : C.discovery) ->
        Option.map
          (fun red -> (String.length red, String.length d.C.disc_case.Comfort.Testcase.tc_source))
          d.C.disc_reduced)
      discs
  in
  let size_ratio =
    match reduced_pairs with
    | [] -> 1.0
    | l ->
        Float.of_int (List.fold_left (fun a (x, _) -> a + x) 0 l)
        /. Float.of_int (List.fold_left (fun a (_, y) -> a + y) 0 l)
  in
  let untraced_wall = median (List.map (fun p -> p.p_wall) untraced) in
  let metrics =
    stages
    @ [ ("stage.unaccounted_pct", profile.Comfort.Metrics.pr_unaccounted_pct) ]
    @ substages
    @ [
        ("lm.ns_per_token", lm_ns_per_token (self "lm.sample"));
        ("generator.us_per_case", us_per_case (self "generator"));
        ("analysis.screen.us_per_case", us_per_case (self "analysis.screen"));
        ( "analysis.keep_ratio",
          Float.of_int (rp.rp_screened - rp.rp_dropped)
          /. Float.of_int (max 1 rp.rp_screened) );
        ("jsparse.parse.us_per_case", us_per_case (self "jsparse.parse"));
        ("jsparse.parses_per_case", per_case (Float.of_int parses));
        ("engines.sweep.us_per_case", us_per_case (self "engines.sweep"));
        ("engines.executions_per_case", per_case (Float.of_int runs));
        ( "engines.share_hit_ratio",
          Float.of_int rp.rp_shared
          /. Float.of_int (max 1 (rp.rp_executed + rp.rp_shared)) );
        ("engines.reach_seeded_per_case", per_case (Float.of_int r.C.cp_reach_seeded));
        ("jsinterp.specialized_per_case", per_case (Float.of_int r.C.cp_specialized));
        ("jsinterp.cow_clones", Float.of_int r.C.cp_cow_clones);
        ("jsinterp.ic_hits", Float.of_int r.C.cp_ic_hits);
        ("difftest.vote.us_per_case", us_per_case (self "difftest.vote"));
        ("bugfilter.filtered_repeats", Float.of_int r.C.cp_filtered_repeats);
        ( "reducer.ms_per_discovery",
          row profile.Comfort.Metrics.pr_stages "reduce" *. 1e3
          /. Float.of_int (max 1 (List.length discs)) );
        ("reducer.size_ratio", size_ratio);
        ("ipc.bytes_per_case", per_case (Float.of_int rp.rp_ipc_bytes));
        ("ipc.roundtrip.us_per_case", us_per_case (self "ipc.roundtrip"));
        ("coordinator.respawns", Float.of_int respawns);
        ("coordinator.hangs", Float.of_int hangs);
        ("gc.alloc_bytes_per_case", per_case alloc);
        ( "gc.minor_collections",
          Float.of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
        ( "gc.major_collections",
          Float.of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
        ("trace.overhead_pct", 100.0 *. (wall -. untraced_wall) /. untraced_wall);
      ]
  in
  json_obj
    ([
       ("mode", json_string "trace");
       ("workload", json_string w.w_name);
       ("budget", string_of_int budget);
       ("cases", string_of_int r.C.cp_cases_run);
       ("failed", string_of_int (failed_cases ~budget r));
       ("digest", json_string dg);
       ("bugs", string_of_int (List.length discs));
       ("errors", json_list (List.rev_map json_string !errors));
       ("metrics", json_obj (List.map (fun (k, v) -> (k, json_float v)) metrics));
     ]
    @ host_fields ())

(* ---------- command line ---------- *)

let () =
  let usage () =
    prerr_endline
      "usage: harness.exe (setup|run|trace|digest) --workload W --seeds N,.. \
       [--expect HEX,..] [--seconds S] [--budget B] [--out DIR]";
    exit 2
  in
  let args = Array.to_list Sys.argv in
  let mode, opts = match args with _ :: m :: rest -> (m, rest) | _ -> usage () in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] opts in
  let get k = List.assoc_opt k opts in
  let int_of k default =
    match get k with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let w =
    match get "--workload" with
    | Some n -> (
        match List.find_opt (fun w -> w.w_name = n) workloads with
        | Some w -> w
        | None ->
            Printf.eprintf "unknown workload %s\n" n;
            exit 2)
    | None -> usage ()
  in
  let ints k =
    match get k with
    | None -> usage ()
    | Some v -> (
        try List.map int_of_string (String.split_on_char ',' v)
        with Failure _ -> usage ())
  in
  let seeds = ints "--seeds" in
  let expects =
    match get "--expect" with
    | None -> List.map (fun _ -> None) seeds
    | Some v ->
        let l = String.split_on_char ',' v in
        if List.length l <> List.length seeds then usage ();
        List.map Option.some l
  in
  let runs = List.combine seeds expects in
  let seed, expect = List.hd runs in
  let budget = int_of "--budget" w.w_budget in
  let seconds = Float.of_int (int_of "--seconds" 10) in
  let line =
    match mode with
    | "setup" -> setup_mode w ~seed
    | "run" -> run_mode w ~runs ~seconds ~budget
    | "trace" ->
        let out = match get "--out" with Some d -> d | None -> usage () in
        trace_mode w ~seed ~seconds ~budget ~expect ~out
    | "digest" -> digest_mode w ~seed ~budget
    | _ -> usage ()
  in
  print_endline line
