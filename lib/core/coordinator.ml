(* Fork-based process-isolated worker pool — see coordinator.mli and
   DESIGN.md §14.

   Anatomy: the driver forks N single-threaded children. Each child
   loops { read task; execute; reply } over a pair of pipes speaking Ipc
   frames. The driver pulls tasks from a sequence as children free up
   and keeps up to [depth] in flight per child, so the next case
   already waits in the pipe when the current one ends; the child runs
   them in FIFO order, so the oldest in-flight task is
   always the one executing. The driver multiplexes the result pipes
   with select, SIGKILLs deadline overruns, respawns the dead (within
   budget), and consumes replies strictly in submission order through a
   reorder buffer, so the campaign consumes exactly the sequence its
   in-process loop would.

   Child discipline: a forked child shares the parent's buffered
   channels copy-on-write, so it must never write to them and must
   leave via Unix._exit (plain exit would flush duplicated buffers into
   the parent's output). Children talk only over their own two pipes. *)

module Counter = Cutil.Counter

type limits = {
  li_watchdog_s : float;
  li_task_deaths : int;
  li_respawn_budget : int;
  li_backoff_ms : int;
}

let default_limits =
  {
    li_watchdog_s = 30.0;
    li_task_deaths = 2;
    li_respawn_budget = 32;
    li_backoff_ms = 25;
  }

exception Exhausted of string

(* What a self-watchdogged child exits with; the driver reads it back at
   reap time to classify the death as a hang rather than a crash. *)
let exit_watchdog = 86

(* --- process-wide robustness telemetry (driver-mutated only) ------- *)

let respawns = Counter.make "coordinator.respawns"
let kills = Counter.make "coordinator.kills"
let hangs = Counter.make "coordinator.hangs"
let stat_respawns () = Counter.get respawns
let stat_kills () = Counter.get kills
let stat_hangs () = Counter.get hangs

let available () =
  Sys.unix
  &&
  match Sys.getenv_opt "COMFORT_NO_FORK" with
  | None | Some "" -> true
  | Some _ -> false

(* --- wire protocol ------------------------------------------------- *)

type 'a dispatch =
  | D_task of { dt_seq : int; dt_absorbed : int; dt_payload : 'a }

(* [rd_counters] is the task's delta of every registered counter
   ([Counter.since]). A child's address space dies with it, so completed
   replies carry their counter contribution home; deltas from dispatches
   that died are lost with the child — exactly right, because the
   surviving re-dispatch redoes that work, keeping folded totals
   identical to an in-process run. *)
type 'b reply =
  | R_killme of int  (* unabsorbed worker_kill draw: SIGKILL me *)
  | R_done of {
      rd_seq : int;
      rd_reply : ('b, string) result;  (* Error: the task raised *)
      rd_counters : int array;
    }

(* --- child side ---------------------------------------------------- *)

let arm_itimer (s : float) : unit =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = s })

(* The child's whole life. Never returns; never raises past itself. *)
let run_child ~(limits : limits) ~(fn : 'a -> 'b) ~(task_r : Unix.file_descr)
    ~(result_w : Unix.file_descr) : unit =
  (* The operator's SIGINT goes to the whole foreground group; the
     decision to stop is the driver's alone (it checkpoints first, then
     SIGKILLs us), so children ignore the polite signals. *)
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm Sys.Signal_ignore;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* First watchdog layer: self-destruct at the per-task wall budget.
     SIGALRM interrupts anything OCaml can interrupt; what it can't, the
     driver's deadline SIGKILL (second layer) reaps. *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> Unix._exit exit_watchdog));
  let send (r : 'b reply) : unit =
    (* the only reader is the driver; if it is gone, so is our reason
       to exist *)
    try Ipc.write result_w r with _ -> Unix._exit 0
  in
  let parent = Unix.getppid () in
  let rec loop () =
    match (Ipc.read task_r : ('a dispatch, Ipc.error) result) with
    | Error _ -> Unix._exit 0 (* driver closed the pipe: clean quit *)
    | Ok (D_task { dt_seq; dt_absorbed; dt_payload }) ->
        Supervisor.arm_kill_hook ~absorb:dt_absorbed ~die:(fun () ->
            arm_itimer 0.0;
            send (R_killme dt_seq);
            (* park until the driver's SIGKILL lands — unless the driver
               itself dies first (we get reparented), in which case
               nobody will ever deliver that kill and we must not
               outlive the campaign as an orphan *)
            while true do
              Unix.sleepf 0.05;
              if Unix.getppid () <> parent then Unix._exit 0
            done);
        arm_itimer limits.li_watchdog_s;
        let c0 = Counter.snapshot () in
        let r = try Ok (fn dt_payload) with e -> Error (Printexc.to_string e) in
        arm_itimer 0.0;
        Supervisor.disarm_kill_hook ();
        send
          (R_done
             { rd_seq = dt_seq; rd_reply = r; rd_counters = Counter.since c0 });
        loop ()
  in
  loop ()

(* --- driver side --------------------------------------------------- *)

type wstate = {
  mutable w_pid : int;
  mutable w_task_w : Unix.file_descr;
  mutable w_result_r : Unix.file_descr;
  mutable w_alive : bool;
  w_inflight : int Queue.t; (* dispatched tasks, oldest (executing) first *)
  mutable w_started : float; (* when the oldest in-flight task became so *)
}

(* Tasks in flight per worker: the one executing and the next. *)
let depth = 2

(* A worker that already holds a task receives another only if its frame
   fits in one pipe page. The pipe then has room for it once the child
   has read the task it is executing, so the driver never blocks writing
   to a child that is itself blocked writing a large reply. *)
let queued_frame_max = 4096

(* Dispatch lookahead past the consume cursor, per worker: it bounds the
   reorder buffer (a slot holds one reply, about 0.5 KB on campaigns) and
   must outlast the longest case (~50 ms at campaign fuel), or the other
   workers stall behind it. *)
let window_per_worker = 64

type ('a, 'b) t = {
  co_limits : limits;
  co_fn : 'a -> 'b;
  co_ws : wstate array;
  mutable co_consec : int; (* consecutive deaths, for backoff *)
  mutable co_respawns : int;
  mutable co_shut : bool;
  co_prev_sigpipe : Sys.signal_behavior;
}

let rec reap pid : Unix.process_status option =
  match Unix.waitpid [] pid with
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None

(* SIGKILL then reap. An already-dead child is a zombie until reaped, so
   the kill is a harmless no-op and the status read back is its real
   one — which is how the driver recognises a self-watchdogged worker
   (clean [exit_watchdog]) after the fact. *)
let kill_reap pid : Unix.process_status option =
  (try Unix.kill pid Sys.sigkill
   with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
  reap pid

(* [siblings] are the driver-side pipe ends of every other live worker
   at fork time. The child must close its inherited copies: a sibling's
   task pipe with a surviving writer never delivers EOF, so a
   SIGKILLed driver would otherwise leave every worker parked in
   [Ipc.read] forever instead of noticing the closed pipe and exiting. *)
let spawn ?(siblings = []) ~(limits : limits) ~(fn : 'a -> 'b) () : wstate =
  let task_r, task_w = Unix.pipe ~cloexec:false () in
  let result_r, result_w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
      Unix.close task_w;
      Unix.close result_r;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        siblings;
      (try run_child ~limits ~fn ~task_r ~result_w with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close task_r;
      Unix.close result_w;
      {
        w_pid = pid;
        w_task_w = task_w;
        w_result_r = result_r;
        w_alive = true;
        w_inflight = Queue.create ();
        w_started = 0.0;
      }

let create ~workers ?(limits = default_limits) ~worker () : ('a, 'b) t =
  if workers <= 0 then invalid_arg "Coordinator.create: workers must be > 0";
  if limits.li_watchdog_s <= 0.0 then
    invalid_arg "Coordinator.create: li_watchdog_s must be > 0";
  (* EPIPE (a dead worker under our write) must be an error to classify,
     not a process-killing signal *)
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  {
    co_limits = limits;
    co_fn = worker;
    co_ws =
      (* fork sequentially, telling each child which driver-side fds of
         its elder siblings to close *)
      (let rec build acc i =
         if i = workers then Array.of_list (List.rev acc)
         else
           let siblings =
             List.concat_map (fun w -> [ w.w_task_w; w.w_result_r ]) acc
           in
           build (spawn ~siblings ~limits ~fn:worker () :: acc) (i + 1)
       in
       build [] 0);
    co_consec = 0;
    co_respawns = 0;
    co_shut = false;
    co_prev_sigpipe = prev;
  }

let retire (w : wstate) : Unix.process_status option =
  w.w_alive <- false;
  (try Unix.close w.w_task_w with Unix.Unix_error _ -> ());
  (try Unix.close w.w_result_r with Unix.Unix_error _ -> ());
  kill_reap w.w_pid

let shutdown (t : ('a, 'b) t) : unit =
  if not t.co_shut then begin
    t.co_shut <- true;
    Array.iter (fun w -> if w.w_alive then ignore (retire w)) t.co_ws;
    Sys.set_signal Sys.sigpipe t.co_prev_sigpipe
  end

let with_pool ~workers ?limits ~worker f =
  let t = create ~workers ?limits ~worker () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Replace a retired worker's slot with a fresh child. [charge] is true
   for unexpected deaths (crashes, watchdog reaps): those count against
   the respawn budget and back off on consecutive deaths. Deliberate
   [worker_kill] deaths respawn free of charge and without backoff —
   they are injected chaos, deterministic and self-bounding (each one
   increments the task's absorb count, which converges), so they must
   never starve a long chaos campaign of the budget that guards against
   real death storms. *)
let respawn (t : ('a, 'b) t) ~(charge : bool) (w : wstate) : unit =
  Counter.incr respawns;
  if charge then begin
    t.co_respawns <- t.co_respawns + 1;
    if t.co_respawns > t.co_limits.li_respawn_budget then
      raise
        (Exhausted
           (Printf.sprintf "respawn budget (%d) exhausted"
              t.co_limits.li_respawn_budget));
    let slot = min t.co_consec 6 in
    t.co_consec <- t.co_consec + 1;
    let ms = t.co_limits.li_backoff_ms * (1 lsl slot) in
    if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.0)
  end;
  let siblings =
    Array.to_list t.co_ws
    |> List.concat_map (fun w' ->
           if w' != w && w'.w_alive then [ w'.w_task_w; w'.w_result_r ]
           else [])
  in
  let nw = spawn ~siblings ~limits:t.co_limits ~fn:t.co_fn () in
  w.w_pid <- nw.w_pid;
  w.w_task_w <- nw.w_task_w;
  w.w_result_r <- nw.w_result_r;
  w.w_alive <- true;
  Queue.clear w.w_inflight;
  w.w_started <- 0.0

let run_ordered (type a b) (t : (a, b) t) ?on_task_fail
    ?(stop = fun () -> false) ?(at_dispatch = Fun.id) (tasks : a Seq.t)
    ~(consume : int -> a -> b -> unit) : unit =
  (* a run halted by [stop] leaves tasks in flight, whose replies would
     be taken for this run's: replace those workers first *)
  Array.iter
    (fun w ->
      if w.w_alive && not (Queue.is_empty w.w_inflight) then begin
        ignore (retire w);
        respawn t ~charge:false w
      end)
    t.co_ws;
  let limits = t.co_limits in
  (* the driver SIGKILLs a worker this long after its oldest task
     became the oldest; the child's own itimer (li_watchdog_s) gets
     the first shot *)
  let deadline_s = (limits.li_watchdog_s *. 2.0) +. 0.5 in
  let window = window_per_worker * Array.length t.co_ws in
  (* Tasks are pulled only when a worker has room for one, and never
     more than [window] past the consume cursor: the pull is the read-
     ahead. Each pulled task stays here until it is consumed. *)
  let source = ref tasks in
  let exhausted = ref false in
  let pulled : (int, a) Hashtbl.t = Hashtbl.create 64 in
  (* per-task kill absorptions and deaths, absent = 0 *)
  let absorbed : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let deaths : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let count tbl seq = Option.value (Hashtbl.find_opt tbl seq) ~default:0 in
  let bump tbl seq = Hashtbl.replace tbl seq (count tbl seq + 1) in
  (* Landed replies waiting for the in-order cursor, with their
     counter deltas. The deltas are folded into the process-wide
     counters only when the reply is CONSUMED, not when it arrives: a
     checkpoint taken at consume point k must account for exactly the
     first k cases, or a resumed campaign would replay — and
     double-count — the lookahead work folded early. *)
  let pending : (int, (b, string) result * int array option) Hashtbl.t =
    Hashtbl.create 64
  in
  let redis = ref [] in (* tasks owed a re-dispatch, any order *)
  let next_new = ref 0 in
  let next_consume = ref 0 in
  let halted = ref false in
  let finished () = !exhausted && !next_consume = !next_new in
  (* the next task and its frame, taken but not yet written: a frame
     too large to queue waits here for an idle worker *)
  let staged = ref None in
  (* A worker died. Its oldest in-flight task was executing and bears
     the death: a deliberate kill re-dispatches it with one more draw
     absorbed; crashes and hangs burn one of its lives and beyond that
     the task is failed (the driver's existing poisoned-work lane
     decides what that means). The task queued behind it never
     started, so it is re-dispatched as it was. *)
  let handle_death (w : wstate) (kind : [ `Kill | `Crash | `Hang ]) : unit =
    let inflight = List.of_seq (Queue.to_seq w.w_inflight) in
    let status = retire w in
    (* a child that hit its own itimer first looks like a plain death
       on the pipe; its exit status says what really happened *)
    let kind =
      match (kind, status) with
      | `Crash, Some (Unix.WEXITED e) when e = exit_watchdog -> `Hang
      | kind, _ -> kind
    in
    (match kind with
    | `Kill -> Counter.incr kills
    | `Hang -> Counter.incr hangs
    | `Crash -> ());
    (match inflight with
    | [] -> ()
    | seq :: queued -> (
        redis := queued @ !redis;
        match kind with
        | `Kill ->
            bump absorbed seq;
            redis := seq :: !redis
        | `Crash | `Hang ->
            bump deaths seq;
            if count deaths seq > limits.li_task_deaths then
              Hashtbl.replace pending seq
                ( Error
                    (Printf.sprintf "worker %s; task gave up after %d deaths"
                       (match kind with
                       | `Hang -> "exceeded the wall-clock watchdog (SIGKILL)"
                       | _ -> "died unexpectedly")
                       (count deaths seq)),
                  None )
            else redis := seq :: !redis));
    respawn t w ~charge:(match kind with `Kill -> false | `Crash | `Hang -> true)
  in
  let next_task () =
    if Option.is_none !staged then begin
      let take seq =
        staged :=
          Some
            ( seq,
              Ipc.encode
                (D_task
                   {
                     dt_seq = seq;
                     dt_absorbed = count absorbed seq;
                     dt_payload = at_dispatch (Hashtbl.find pulled seq);
                   }) )
      in
      match !redis with
      | seq :: rest ->
          redis := rest;
          take seq
      | [] when (not !exhausted) && !next_new < !next_consume + window -> (
          match !source () with
          | Seq.Nil -> exhausted := true
          | Seq.Cons (x, rest) ->
              source := rest;
              Hashtbl.replace pulled !next_new x;
              take !next_new;
              incr next_new)
      | [] -> ()
    end;
    !staged
  in
  let rec feed (w : wstate) : unit =
    if w.w_alive && Queue.length w.w_inflight < depth then
      match next_task () with
      | Some (seq, frame)
        when Queue.is_empty w.w_inflight
             || String.length frame <= queued_frame_max -> (
          staged := None;
          match Ipc.write_frame w.w_task_w frame with
          | () ->
              if Queue.is_empty w.w_inflight then
                w.w_started <- Unix.gettimeofday ();
              Queue.add seq w.w_inflight;
              feed w
          | exception _ ->
              (* the worker is dead and this task never reached it *)
              redis := seq :: !redis;
              handle_death w `Crash;
              feed w)
      | _ -> ()
  in
  while not (!halted || finished ()) do
    if stop () then halted := true
    else begin
      (* 1. keep every worker's pipe [depth] tasks deep *)
      Array.iter feed t.co_ws;
      if not (finished ()) then begin
        (* 2. wait for replies (bounded, so the deadline sweep and the
           stop poll stay responsive even with every worker wedged) *)
        let fds =
          Array.to_list t.co_ws
          |> List.filter_map (fun w ->
                 if w.w_alive then Some w.w_result_r else None)
        in
        let readable =
          match Unix.select fds [] [] 0.05 with
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        List.iter
          (fun fd ->
            match
              Array.to_list t.co_ws
              |> List.find_opt (fun w -> w.w_alive && w.w_result_r = fd)
            with
            | None -> ()
            | Some w -> (
                let oldest = Queue.peek_opt w.w_inflight in
                match (Ipc.read w.w_result_r : (b reply, Ipc.error) result) with
                | Ok (R_killme seq) when oldest = Some seq -> handle_death w `Kill
                | Ok (R_done { rd_seq; rd_reply; rd_counters })
                  when oldest = Some rd_seq ->
                    t.co_consec <- 0;
                    ignore (Queue.pop w.w_inflight);
                    (* the next queued task starts now: restart its clock *)
                    w.w_started <- Unix.gettimeofday ();
                    Hashtbl.replace pending rd_seq (rd_reply, Some rd_counters)
                | Ok _ | Error _ ->
                    (* EOF, a torn/corrupt frame, or a reply out of FIFO
                       order: the child died (or lost its mind, which
                       costs it its life) *)
                    handle_death w `Crash))
          readable;
        (* 3. watchdog backstop: SIGKILL deadline overruns *)
        let now = Unix.gettimeofday () in
        Array.iter
          (fun w ->
            if
              w.w_alive
              && (not (Queue.is_empty w.w_inflight))
              && now -. w.w_started > deadline_s
            then handle_death w `Hang)
          t.co_ws;
        (* 4. consume strictly in submission order *)
        let continue = ref true in
        while !continue && not !halted do
          match Hashtbl.find_opt pending !next_consume with
          | None -> continue := false
          | Some (r, cnt) ->
              let seq = !next_consume in
              let task = Hashtbl.find pulled seq in
              Hashtbl.remove pending seq;
              Hashtbl.remove pulled seq;
              Hashtbl.remove absorbed seq;
              Hashtbl.remove deaths seq;
              (* fold before [consume]: a checkpoint taken inside the
                 consume callback must already account for this case *)
              Option.iter Counter.absorb cnt;
              let v =
                match (r, on_task_fail) with
                | Ok v, _ -> v
                | Error msg, Some f -> f seq task msg
                | Error msg, None ->
                    failwith ("Coordinator worker failed: " ^ msg)
              in
              consume seq task v;
              incr next_consume;
              if stop () then halted := true
        done
      end
    end
  done
