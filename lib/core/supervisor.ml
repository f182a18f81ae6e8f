(* Supervised execution: fault injection, bounded retry, quarantine.

   The real Comfort drove 51 external engine builds that crash, hang and
   flake for reasons that have nothing to do with conformance; the paper's
   Fig. 5 pipeline (and its 2t timeout rule) exists to keep a 200-hour
   campaign alive through such infrastructure faults and to keep them out
   of the bug statistics. Our engines are in-process simulations, so the
   faults have to be simulated too: a {!Faultplan} deterministically
   injects engine-process crashes, hangs (killed by a watchdog), transient
   flakes and slow starts into individual testbed executions, and the
   supervisor layered on top retries transient faults with deterministic
   backoff and quarantines testbeds that fault persistently.

   Two halves, split by where they run:

   - the {e worker} half ([execute]) wraps one testbed execution. It only
     reads the immutable fault plan and policy, so it can run in any
     forked worker; every draw is a pure function of (plan seed, testbed
     id, case key, attempt), which makes a chaos campaign byte-identical
     at any worker count and across checkpoint resume.

   - the {e driver} half ({!t}: [observe], [quarantined]) folds the
     per-case fault observations in submission order, tracks consecutive
     faults per testbed, and grows the quarantine set. Only the driver
     mutates it, so its decisions are a deterministic function of the
     consumed case stream. A sweep may consult [quarantined] purely to
     skip work: a forked worker reads its copy from fork time, which can
     only be stale by missing later quarantines (nothing is ever
     un-quarantined), and the judge re-checks against driver state, so a
     stale read can only cost a wasted execution, never change a
     report. *)

(* --- fault taxonomy --- *)

type fault_kind =
  | F_crash         (* simulated engine-process crash *)
  | F_hang          (* simulated hang; the watchdog kills it *)
  | F_kill          (* the coordinator hard-kills the whole worker
                       process (in-process runs treat it as a crash) *)
  | F_flaky         (* transient failure that clears after N attempts *)
  | F_slow of int   (* slow start of the given latency; beyond the
                       watchdog budget it is killed like a hang *)
  | F_exn of string (* a real exception escaped the engine harness *)

let fault_kind_to_string = function
  | F_crash -> "crash"
  | F_hang -> "hang"
  | F_kill -> "kill"
  | F_flaky -> "flaky"
  | F_slow l -> Printf.sprintf "slow(%d)" l
  | F_exn m -> "exn:" ^ m

(* Injected faults travel as this exception so they can never be mistaken
   for an engine outcome: [Run] knows nothing about it, so no injected
   fault can surface as a [Sts_crash]/[Sts_timeout] signature — it either
   clears on retry or removes the execution from the vote entirely. *)
exception Injected of fault_kind

(* --- the fault plan --- *)

module Faultplan = struct
  type t = {
    fp_seed : int;
    fp_crash : float;        (* per-attempt probability *)
    fp_hang : float;
    fp_flaky : float;        (* per-execution probability *)
    fp_flaky_tries : int;    (* failed attempts before a flake clears *)
    fp_slow : float;         (* per-attempt probability *)
    fp_slow_max : int;       (* latency drawn uniformly in [1, max] *)
    fp_kill : float;         (* per-attempt probability of a real
                                worker-process hard-kill *)
    fp_targets : string list;(* testbed-id substrings; [] = everywhere *)
  }

  let default =
    {
      fp_seed = 1;
      fp_crash = 0.0;
      fp_hang = 0.0;
      fp_flaky = 0.0;
      fp_flaky_tries = 1;
      fp_slow = 0.0;
      fp_slow_max = 150;
      fp_kill = 0.0;
      fp_targets = [];
    }

  (* Spec syntax, e.g. COMFORT_FAULTS="seed=9;targets=V8|Hermes;crash=0.1;
     hang=0.05;flaky=0.3;flaky_tries=2;slow=0.2". Unknown keys are
     rejected so a typo cannot silently disable a chaos campaign. *)
  let of_spec (spec : string) : (t, string) result =
    let fields =
      String.split_on_char ';' spec
      |> List.concat_map (String.split_on_char ',')
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    let parse_float k v =
      match float_of_string_opt v with
      | Some f when f >= 0.0 && f <= 1.0 -> Ok f
      | _ -> Error (Printf.sprintf "%s wants a probability in [0,1], got %S" k v)
    in
    let parse_int k v =
      match int_of_string_opt v with
      | Some n when n >= 0 -> Ok n
      | _ -> Error (Printf.sprintf "%s wants a non-negative integer, got %S" k v)
    in
    List.fold_left
      (fun acc field ->
        Result.bind acc (fun t ->
            match String.index_opt field '=' with
            | None -> Error (Printf.sprintf "malformed field %S (want key=value)" field)
            | Some i -> (
                let k = String.sub field 0 i in
                let v = String.sub field (i + 1) (String.length field - i - 1) in
                match k with
                | "seed" -> Result.map (fun n -> { t with fp_seed = n }) (parse_int k v)
                | "crash" -> Result.map (fun f -> { t with fp_crash = f }) (parse_float k v)
                | "hang" -> Result.map (fun f -> { t with fp_hang = f }) (parse_float k v)
                | "flaky" -> Result.map (fun f -> { t with fp_flaky = f }) (parse_float k v)
                | "flaky_tries" ->
                    Result.map (fun n -> { t with fp_flaky_tries = max 1 n }) (parse_int k v)
                | "slow" -> Result.map (fun f -> { t with fp_slow = f }) (parse_float k v)
                | "slow_max" ->
                    Result.map (fun n -> { t with fp_slow_max = max 1 n }) (parse_int k v)
                | "worker_kill" ->
                    Result.map (fun f -> { t with fp_kill = f }) (parse_float k v)
                | "targets" ->
                    Ok
                      {
                        t with
                        fp_targets =
                          String.split_on_char '|' v
                          |> List.map String.trim
                          |> List.filter (fun s -> s <> "");
                      }
                | _ -> Error (Printf.sprintf "unknown fault-plan key %S" k))))
      (Ok default) fields

  (* COMFORT_FAULTS, the chaos-campaign switch CI uses. A malformed spec
     fails loudly: silently fuzzing without faults would defeat the job. *)
  let from_env () : t option =
    match Sys.getenv_opt "COMFORT_FAULTS" with
    | None | Some "" -> None
    | Some spec -> (
        match of_spec spec with
        | Ok t -> Some t
        | Error msg -> invalid_arg ("COMFORT_FAULTS: " ^ msg))

  let targets (t : t) (testbed_id : string) : bool =
    t.fp_targets = []
    || List.exists
         (fun needle ->
           let lh = String.lowercase_ascii testbed_id
           and ln = String.lowercase_ascii needle in
           let nh = String.length lh and nn = String.length ln in
           let rec scan i = i + nn <= nh && (String.sub lh i nn = ln || scan (i + 1)) in
           nn > 0 && scan 0)
         t.fp_targets

  (* Deterministic uniform draw in [0,1) from (seed, testbed, case,
     attempt, salt): FNV-1a over the key material, finalised splitmix-
     style. No global RNG state is touched, so draws are independent of
     scheduling, job count and checkpoint boundaries. *)
  let hash01 (t : t) ~(testbed_id : string) ~(case_key : int) ~(attempt : int)
      ~(salt : int) : float =
    let h = ref 0xcbf29ce484222325L in
    let mix byte =
      h := Int64.mul (Int64.logxor !h (Int64.of_int (byte land 0xff))) 0x100000001b3L
    in
    let mix_int n =
      for shift = 0 to 7 do
        mix ((n lsr (shift * 8)) land 0xff)
      done
    in
    mix_int t.fp_seed;
    String.iter (fun c -> mix (Char.code c)) testbed_id;
    mix_int case_key;
    mix_int attempt;
    mix_int salt;
    (* splitmix64 finaliser to spread the low bits *)
    let z = ref !h in
    z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 30)) 0xbf58476d1ce4e5b9L;
    z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 27)) 0x94d049bb133111ebL;
    z := Int64.logxor !z (Int64.shift_right_logical !z 31);
    Int64.to_float (Int64.shift_right_logical !z 11) /. 9007199254740992.0

  (* The fault (if any) injected into attempt [attempt] of this testbed's
     execution of case [case_key]. Flakes are drawn once per execution
     (attempt 0's draw) and persist for [fp_flaky_tries] attempts, which
     is what makes "fails N times then succeeds" reproducible; crashes,
     hangs and slow starts are drawn independently per attempt, so a
     retry genuinely re-rolls them. *)
  let draw (t : t) ~(testbed_id : string) ~(case_key : int) ~(attempt : int) :
      fault_kind option =
    if not (targets t testbed_id) then None
    else
      let u salt a = hash01 t ~testbed_id ~case_key ~attempt:a ~salt in
      if t.fp_flaky > 0.0 && u 3 0 < t.fp_flaky && attempt < t.fp_flaky_tries
      then Some F_flaky
      else if t.fp_crash > 0.0 && u 1 attempt < t.fp_crash then Some F_crash
      else if t.fp_hang > 0.0 && u 2 attempt < t.fp_hang then Some F_hang
      else if t.fp_kill > 0.0 && u 6 attempt < t.fp_kill then Some F_kill
      else if t.fp_slow > 0.0 && u 4 attempt < t.fp_slow then
        Some
          (F_slow (1 + int_of_float (u 5 attempt *. float_of_int t.fp_slow_max)))
      else None
end

(* --- supervision policy --- *)

type policy = {
  p_retries : int;          (* extra attempts after a faulted first try *)
  p_backoff_base : int;     (* simulated backoff units; attempt k waits
                               base * 2^k (fuel is the wall-clock
                               stand-in, so backoff is accounted, not
                               slept) *)
  p_watchdog : int;         (* slow-start budget in latency units; a slow
                               start beyond it is killed like a hang *)
  p_quarantine_after : int; (* consecutive faulted cases before a testbed
                               is dropped from the sweep *)
}

let default_policy =
  { p_retries = 2; p_backoff_base = 10; p_watchdog = 100; p_quarantine_after = 3 }

(* --- worker-process kill hook (set only inside Coordinator children) ---

   [worker_kill] draws must behave identically in-process and under real
   process isolation for reports to be byte-identical at any worker
   count. In-process, a drawn [F_kill] simply fails the attempt like a
   crash. In a forked worker the coordinator arms this hook per dispatch
   with the number of kill draws to absorb (how many times this task's
   worker has already been hard-killed): the first [absorb] draws — in
   the same deterministic sweep order as in-process — again fail the
   attempt in-process, and the next one invokes [die], which asks the
   coordinator for a real SIGKILL and never returns. Re-dispatch with
   [absorb+1] therefore makes monotone progress and converges on exactly
   the in-process outcome.

   Plain refs, not atomics: the hook is armed only in single-threaded
   forked children; the driver only ever observes [None]. *)

let kill_hook : (unit -> unit) option ref = ref None
let kill_absorb : int ref = ref 0

let arm_kill_hook ~(absorb : int) ~(die : unit -> unit) : unit =
  kill_hook := Some die;
  kill_absorb := absorb

let disarm_kill_hook () : unit =
  kill_hook := None;
  kill_absorb := 0

(* --- worker half: one supervised execution --- *)

type exec_meta = {
  em_retries : int;   (* failed attempts absorbed before success *)
  em_backoff : int;   (* total simulated backoff units *)
  em_slow : int;      (* slow starts absorbed (within watchdog budget) *)
}

let ok_meta = { em_retries = 0; em_backoff = 0; em_slow = 0 }

type fault_report = {
  fr_kind : fault_kind;       (* the fault that exhausted the retry budget *)
  fr_attempts : int;          (* attempts made (>= 1) *)
  fr_trail : fault_kind list; (* fault per failed attempt, oldest first *)
  fr_backoff : int;           (* total simulated backoff units *)
}

type 'a outcome =
  | Done of 'a * exec_meta
  | Faulted of fault_report
  | Skipped  (* quarantined before execution *)

(* Run [thunk] under the plan and policy. Every attempt first consults the
   fault plan; an injected (or real, escaped) fault burns one attempt and
   a deterministic backoff, and the next attempt re-rolls. With no plan
   this is [thunk ()] plus one exception handler — the happy path stays
   allocation-free. Real exceptions are retried like injected crashes:
   infrastructure flakes clear, deterministic harness bugs exhaust the
   budget and surface as [F_exn] faults (never as engine behaviour). *)
let execute ?plan ?(policy = default_policy) ~(testbed_id : string)
    ~(case_key : int) (thunk : unit -> 'a) : 'a outcome =
  let rec attempt_from ~attempt ~trail ~backoff ~slow =
    let backoff =
      if attempt = 0 then backoff
      else backoff + (policy.p_backoff_base * (1 lsl (attempt - 1)))
    in
    let injected =
      match plan with
      | None -> None
      | Some p -> Faultplan.draw p ~testbed_id ~case_key ~attempt
    in
    let fail kind =
      if attempt >= policy.p_retries then
        Faulted
          {
            fr_kind = kind;
            fr_attempts = attempt + 1;
            fr_trail = List.rev (kind :: trail);
            fr_backoff = backoff;
          }
      else
        attempt_from ~attempt:(attempt + 1) ~trail:(kind :: trail) ~backoff ~slow
    in
    let run ~slow =
      match thunk () with
      | v -> Done (v, { em_retries = attempt; em_backoff = backoff; em_slow = slow })
      | exception Injected k -> fail k
      | exception e -> fail (F_exn (Printexc.to_string e))
    in
    match injected with
    | Some F_crash -> fail F_crash
    | Some F_hang -> fail F_hang
    | Some F_kill -> (
        match !kill_hook with
        | Some die when !kill_absorb <= 0 ->
            die ();
            (* [die] never returns; keep the fault ladder sound if a
               test-double hook does *)
            fail F_kill
        | Some _ ->
            decr kill_absorb;
            fail F_kill
        | None -> fail F_kill)
    | Some F_flaky -> fail F_flaky
    | Some (F_slow latency) ->
        (* within the watchdog's startup budget the engine is merely slow;
           beyond it the watchdog cannot tell a slow start from a hang *)
        if latency > policy.p_watchdog then fail (F_slow latency)
        else run ~slow:(slow + 1)
    | Some (F_exn _ as k) -> fail k
    | None -> run ~slow
  in
  attempt_from ~attempt:0 ~trail:[] ~backoff:0 ~slow:0

(* --- driver half: quarantine and accounting --- *)

type stats = {
  st_injected : int;   (* faulted attempts, injected or real *)
  st_retried : int;    (* executions that needed retries but succeeded *)
  st_faulted : int;    (* executions that exhausted the retry budget *)
  st_skipped : int;    (* executions not counted because the testbed was
                          quarantined *)
  st_slow : int;       (* slow starts absorbed within the watchdog budget *)
  st_backoff : int;    (* total simulated backoff units *)
}

let zero_stats =
  { st_injected = 0; st_retried = 0; st_faulted = 0; st_skipped = 0;
    st_slow = 0; st_backoff = 0 }

type t = {
  sup_consec : (string, int) Hashtbl.t;  (* testbed id -> consecutive
                                            faulted cases *)
  mutable sup_quarantined : (string * int) list;  (* (testbed id, case key
                                                     it tripped at), oldest
                                                     first *)
  mutable sup_stats : stats;
}

let create () : t =
  {
    sup_consec = Hashtbl.create 16;
    sup_quarantined = [];
    sup_stats = zero_stats;
  }

let stats (t : t) = t.sup_stats
let quarantine_list (t : t) = t.sup_quarantined

(* The roster is at most one entry per testbed and usually empty. *)
let quarantined (t : t) (testbed_id : string) : bool =
  List.mem_assoc testbed_id t.sup_quarantined

(* One per-case observation per testbed, folded by the driver in
   submission order. *)
type observation =
  | Ob_ok of exec_meta
  | Ob_faulted of fault_report
  | Ob_skipped

let observe (t : t) ~(case_key : int)
    (obs : (string * observation) list) : unit =
  let s = ref t.sup_stats in
  List.iter
    (fun (tb_id, ob) ->
      match ob with
      | Ob_skipped -> s := { !s with st_skipped = !s.st_skipped + 1 }
      | Ob_ok meta ->
          Hashtbl.replace t.sup_consec tb_id 0;
          s :=
            {
              !s with
              st_injected = !s.st_injected + meta.em_retries;
              st_retried = !s.st_retried + (if meta.em_retries > 0 then 1 else 0);
              st_slow = !s.st_slow + meta.em_slow;
              st_backoff = !s.st_backoff + meta.em_backoff;
            }
      | Ob_faulted fr ->
          let consec =
            1 + Option.value (Hashtbl.find_opt t.sup_consec tb_id) ~default:0
          in
          Hashtbl.replace t.sup_consec tb_id consec;
          s :=
            {
              !s with
              st_injected = !s.st_injected + fr.fr_attempts;
              st_faulted = !s.st_faulted + 1;
              st_backoff = !s.st_backoff + fr.fr_backoff;
            };
          if
            consec >= default_policy.p_quarantine_after
            && not (quarantined t tb_id)
          then t.sup_quarantined <- t.sup_quarantined @ [ (tb_id, case_key) ])
    obs;
  t.sup_stats <- !s
