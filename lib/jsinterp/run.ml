(* Top-level engine entry: source in, classified result out.

   [run] is what a "testbed" executes. It builds a fresh realm, parses with
   the engine's front-end options, executes with the engine's quirk set, and
   classifies the outcome in the vocabulary of the paper's Figure 5. *)

type status =
  | Sts_normal
  | Sts_uncaught of string * string  (** error name, message *)
  | Sts_crash of string              (** simulated engine crash *)
  | Sts_timeout                      (** fuel exhausted *)

type result = {
  r_parsed : bool;
  r_parse_error : string option;
  r_status : status;
  r_output : string;
  r_fuel_used : int;
  r_fired : Quirk.Set.t;   (** ground-truth quirks whose deviant path ran *)
  r_touched : Quirk.Set.t;
      (** quirk checkpoints consulted by the run, active or not — a
          superset of [r_fired]; the execution-sharing class key *)
  r_coverage : Coverage.summary option;
}

let status_to_string = function
  | Sts_normal -> "normal"
  | Sts_uncaught (name, msg) -> Printf.sprintf "uncaught %s: %s" name msg
  | Sts_crash msg -> "crash: " ^ msg
  | Sts_timeout -> "timeout"

let default_fuel = 2_000_000

(* Programs actually evaluated in this process (see [run_count]): never
   parse failures, nor results inherited through execution sharing. *)
let runs = Cutil.Counter.make "jsinterp.runs"

let run_count () = Cutil.Counter.get runs

(* Whole-pipeline profiler. Off by default: a disabled probe pays one ref
   read. Two layers of attribution:

   - {e pipeline stages} (generate, screen, sweep, vote, attr, reduce,
     fold) partition a campaign's wall clock. [time] attributes to the
     OUTERMOST active stage only (a re-entrancy flag): when the reducer
     replays a case through the sweep+vote path, the inner probes are
     no-ops, so the stage sums can never double-count and their total is
     a lower bound on wall (what's missing is the unaccounted residual the
     bench gates below 10%).

   - {e interpreter substages} (parse, compile, realm-install, exec) nest
     inside whichever pipeline stage is running them and always record
     ([time_sub]); they answer "of the sweep's cost, how much is the
     engine core?" and are reported as a separate layer, never added to
     the pipeline total.

   Each slot accumulates wall nanoseconds and allocated bytes
   ([Gc.allocated_bytes] delta). *)
module Stage = struct
  let enabled = ref false

  type slot = { mutable ns : int; mutable bytes : int }

  let mk () = { ns = 0; bytes = 0 }

  (* interpreter substages *)
  let parse = mk ()
  let compile = mk ()
  let realm = mk ()
  let exec = mk ()

  (* disjoint pipeline stages *)
  let generate = mk ()
  let screen = mk ()
  let sweep = mk ()
  let vote = mk ()
  let attr = mk ()
  let reduce = mk ()
  let fold = mk ()

  let sub_slots =
    [ ("parse", parse); ("compile", compile); ("realm", realm); ("exec", exec) ]

  let pipe_slots =
    [
      ("generate", generate);
      ("screen", screen);
      ("sweep", sweep);
      ("vote", vote);
      ("attr", attr);
      ("reduce", reduce);
      ("fold", fold);
    ]

  let reset () =
    List.iter
      (fun (_, s) ->
        s.ns <- 0;
        s.bytes <- 0)
      (sub_slots @ pipe_slots)

  let read_of slots =
    List.map (fun (n, s) -> (n, s.ns, s.bytes)) slots

  (* (name, wall ns, allocated bytes) rows, in pipeline order *)
  let pipeline () = read_of pipe_slots
  let substages () = read_of sub_slots

  let record (slot : slot) (t0 : float) (a0 : float) : unit =
    let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
    let b = int_of_float (Gc.allocated_bytes () -. a0) in
    slot.ns <- slot.ns + ns;
    slot.bytes <- slot.bytes + b

  (* interpreter-substage probe: always records when enabled *)
  let time_sub (slot : slot) (f : unit -> 'a) : 'a =
    if not !enabled then f ()
    else begin
      let t0 = Unix.gettimeofday () in
      let a0 = Gc.allocated_bytes () in
      Fun.protect ~finally:(fun () -> record slot t0 a0) f
    end

  (* pipeline-stage probe: outermost active stage wins *)
  let in_stage = ref false

  let time (slot : slot) (f : unit -> 'a) : 'a =
    if (not !enabled) || !in_stage then f ()
    else begin
      in_stage := true;
      let t0 = Unix.gettimeofday () in
      let a0 = Gc.allocated_bytes () in
      Fun.protect
        ~finally:(fun () ->
          in_stage := false;
          record slot t0 a0)
        f
    end
end

(* --- execution scratch ---

   A campaign performs ~12.5 interpreter executions per case, each
   allocating a fresh output buffer, global-scope table, realm copy and
   frame graph. [Fast] executions recycle the two allocations that
   provably die with their execution, which cuts steady-state allocation
   several-fold (the bench's per-stage byte columns show exec dropping
   ~5x); [Reference] executions allocate fresh ones, so the Fast =
   Reference checks cover recycling soundness.

   Minor-heap widening was tried here and measured as a regression:
   growing the minor heap to 4M words (32MB) cost ~10% on the
   production bench row, and 1M words still cost ~5% — the interpreter's
   working set lives in cache under the default 256k-word minor heap and
   a wider nursery trades cheap minor collections for cache misses. The
   default heap geometry is deliberately left alone (EXPERIMENTS.md
   records the numbers).

   The recycled scratch: the [ctx.out] buffer and the global scope's
   bindings table. [r_output] is an immutable string copy
   ([Buffer.contents]) and nothing outlives [run_exec] that can still
   reach the scope (the COW rollback takes any closure created during the
   run with it). The process keeps one slot of each; [buffer] and
   [bindings] empty the slot (so any unexpected reentrancy simply
   allocates fresh) and reset the scratch before reuse, [release] refits
   the slot at the exec's report boundary. Compiled frames are
   deliberately NOT recycled: closures capture them and may legally
   outlive statements (DESIGN.md §13). *)
module Scratch = struct
  let buf : Buffer.t option ref = ref None
  let scope : (string, Value.value ref) Hashtbl.t option ref = ref None

  let buffer () : Buffer.t =
    match !buf with
    | Some b ->
        buf := None;
        Buffer.reset b;
        b
    | None -> Buffer.create 256

  let bindings () : (string, Value.value ref) Hashtbl.t =
    match !scope with
    | Some h ->
        scope := None;
        Hashtbl.reset h;
        h
    | None -> Hashtbl.create 16

  let release (ctx : Value.ctx) : unit =
    buf := Some ctx.Value.out;
    scope := Some ctx.Value.global_scope.Value.bindings
end

(* Parser-level quirks live in the front end: derive the engine's parse
   options from its quirk set so a profile is a single source of truth. *)
let parse_opts_of ~(base : Jsparse.Parser.options) (quirks : Quirk.Set.t) :
    Jsparse.Parser.options =
  let mem q = Quirk.Set.mem q quirks in
  {
    base with
    Jsparse.Parser.accept_for_missing_body =
      base.Jsparse.Parser.accept_for_missing_body
      || mem Quirk.Q_eval_for_missing_body_accepted;
    accept_dup_params_strict =
      base.Jsparse.Parser.accept_dup_params_strict
      || mem Quirk.Q_strict_dup_params_accepted;
    accept_strict_delete_unqualified =
      base.Jsparse.Parser.accept_strict_delete_unqualified
      || mem Quirk.Q_strict_delete_unqualified_accepted;
  }

let make_ctx ?(quirks = Quirk.Set.empty) ?(parse_opts = Jsparse.Parser.default_options)
    ?(fuel = default_fuel) ?(coverage = false) ~(fast : bool) () : Value.ctx =
  (* [fast] borrows the realm template behind the [Value.barrier]
     write barrier and recycles the execution scratch — the caller MUST
     call [Realm.release] and [Scratch.release] when the execution is
     over, the former on every exit path, to roll the copy-on-write
     journal back. Otherwise the realm is built by [Builtins.install] and
     the scratch is fresh. *)
  let snap = if fast then Some (Realm.acquire ()) else None in
  let global =
    match snap with
    | Some (g, _) -> g
    | None -> Value.make_obj ~oclass:"Object" ()
  in
  let global_scope =
    {
      Value.bindings = (if fast then Scratch.bindings () else Hashtbl.create 16);
      parent = None;
      frozen_names = [];
    }
  in
  let q_lo, q_hi = quirks in
  let ctx : Value.ctx =
    {
      Value.global;
      global_scope;
      parse_opts;
      fuel;
      fuel_cap = fuel;
      out = (if fast then Scratch.buffer () else Buffer.create 256);
      q_lo;
      q_hi;
      f_lo = 0;
      f_hi = 0;
      t_lo = 0;
      t_hi = 0;
      call_hook = (fun _ _ _ _ -> Value.Undefined);
      eval_hook = (fun _ _ _ _ -> Value.Undefined);
      coverage = (if coverage then Some (Coverage.create ()) else None);
      loop_trip = 0;
      strconcat_drop_armed = true;
      protos = [];
      depth = 0;
      cur_this = Value.Obj global;
      slotted = false;
      specials_shadowed = false;
      reparsed = false;
      mode_touched = false;
      s_lo = 0;
      s_hi = 0;
    }
  in
  (match snap with
  | Some (_, protos) -> ctx.Value.protos <- protos
  | None -> ());
  ctx.call_hook <- (fun ctx fn this args -> Interp.call_function ctx fn this args);
  ctx.eval_hook <-
    (fun ctx scope strict src ->
      ctx.Value.reparsed <- true;
      (* wire quirk firing out of the engine's parser *)
      let opts =
        {
          ctx.parse_opts with
          Jsparse.Parser.quirk_sink =
            (fun name ->
              match Quirk.of_string name with
              | Some q -> ignore (Value.fire ctx q)
              | None -> ());
        }
      in
      match Jsparse.Parser.parse_program ~opts ~force_strict:strict src with
      | prog -> Interp.exec_in_scope ctx scope ~strict prog
      | exception Jsparse.Parser.Syntax_error (msg, _) ->
          Ops.syntax_error ctx msg);
  (match snap with None -> Builtins.install ctx | Some _ -> ());
  ctx

(* [this] binding for top-level code *)
let bind_globals ctx =
  Hashtbl.replace ctx.Value.global_scope.Value.bindings "this"
    (ref (Value.Obj ctx.Value.global))

(* --- front end, separable from execution ---

   A [frontend] is the outcome of one parse: the program (or the syntax
   error) plus every parse-stage quirk the front end sank, unfiltered.
   Testbeds whose effective parse options and mode coincide can share one
   [frontend] — [run ?frontend] then skips its own parse and intersects
   the sunk quirks with the caller's quirk set, which is exactly the
   filtering the inline parse would have done. *)

type frontend = {
  fe_program : (Jsast.Ast.program, string * int) Stdlib.result;
      (** parsed program, or (message, line) of the syntax error *)
  fe_fired : Quirk.Set.t;
      (** parse-stage quirks sunk by the front end, unfiltered; callers
          intersect with their own quirk set *)
  fe_compiled : (bool, Compile.t) Hashtbl.t;
      (** slot-compiled program, cached per front end and keyed by strict
          mode (a strict override rewrites the program). The compiled
          checkpoint sites consult the quirk set at run time, so every
          testbed sharing a front end and mode shares one compilation —
          the compile-stage analogue of sharing the parse *)
  fe_strict_sensitive : bool;
      (** the parse reached a construct whose outcome depends on the
          ambient strict flag; [false] on a sloppy parse proves a
          [force_strict] parse identical (the mode itself is re-applied
          downstream through the compiled program's strict key) *)
  fe_edition_sensitive : bool;
      (** the parse reached a construct an ES-edition flag gates; [false]
          on a parse without the ES5 rejections proves an ES5-profile
          parse of the same source identical *)
}

let parse_frontend ?(quirks = Quirk.Set.empty)
    ?(parse_opts = Jsparse.Parser.default_options) ?(strict = false)
    (src : string) : frontend =
  let parse_opts = parse_opts_of ~base:parse_opts quirks in
  let fired = ref Quirk.Set.empty in
  let sensitive = ref false in
  let edition = ref false in
  let opts =
    {
      parse_opts with
      Jsparse.Parser.quirk_sink =
        (fun name ->
          match Quirk.of_string name with
          | Some q -> fired := Quirk.Set.add q !fired
          | None -> ());
      Jsparse.Parser.strict_sensitive_sink = (fun () -> sensitive := true);
      edition_sensitive_sink = (fun () -> edition := true);
    }
  in
  let frontend fe_program fe_fired =
    {
      fe_program;
      fe_fired;
      fe_compiled = Hashtbl.create 2;
      fe_strict_sensitive = !sensitive;
      fe_edition_sensitive = !edition;
    }
  in
  match
    Stage.time_sub Stage.parse (fun () ->
        Jsparse.Parser.parse_program ~opts ~force_strict:strict src)
  with
  | prog -> frontend (Ok prog) !fired
  | exception Jsparse.Parser.Syntax_error (msg, line) ->
      frontend (Error (msg, line)) !fired

(* --- execution, separable from the engine that ran it ---

   An [exec] is one interpreter execution together with the evidence needed
   to lend its result to other engines: the quirk set it ran under and the
   execution-stage fired/touched sets (excluding the top-level parse, which
   is per-member — see [share]). The interpreter is deterministic given
   (program, mode, effective parse options, answers at quirk checkpoints),
   and [ex_touched] is exactly the set of checkpoints whose answer was
   consulted, so any engine agreeing with [ex_quirks] on [ex_touched]
   replays the run bit for bit. *)

type exec = {
  ex_result : result;       (** the representative's own full result *)
  ex_quirks : Quirk.Set.t;  (** quirk set the representative ran under *)
  ex_strict : bool;         (** the mode the representative ran in *)
  ex_fired : Quirk.Set.t;   (** execution-stage fired set (no parse stage) *)
  ex_touched : Quirk.Set.t; (** execution-stage touched set *)
  ex_reparsed : bool;
      (** the execution parsed source at run time under its engine's parse
          options ([ctx.reparsed]); the result then depends on the parse
          group, not only on the touched checkpoints *)
  ex_mode_touched : bool;
      (** sloppy code reached a site whose behaviour would change if the
          program were forced strict ([ctx.mode_touched]) *)
  ex_shadow : Quirk.Set.t;
      (** the checkpoints a strict run would consult in addition
          ([Value.shadow]) *)
}

let run_exec ?(quirks = Quirk.Set.empty)
    ?(parse_opts = Jsparse.Parser.default_options) ?(strict = false)
    ?(fuel = default_fuel) ?(coverage = false) ?strategy ?frontend
    (src : string) : exec =
  let fast =
    match Strategy.value strategy with
    | Strategy.Fast -> true
    | Strategy.Reference -> false
  in
  let fe =
    match frontend with
    | Some fe -> fe
    | None -> parse_frontend ~quirks ~parse_opts ~strict src
  in
  (* the pre-parsed front end sank quirks unfiltered; keep only this
     engine's *)
  let parse_fired = Quirk.Set.inter fe.fe_fired quirks in
  match fe.fe_program with
  | Error (msg, line) ->
      {
        ex_result =
          {
            r_parsed = false;
            r_parse_error = Some (Printf.sprintf "line %d: %s" line msg);
            r_status = Sts_normal;
            r_output = "";
            r_fuel_used = 0;
            r_fired = parse_fired;
            r_touched = parse_fired;
            r_coverage = None;
          };
        ex_quirks = quirks;
        ex_strict = strict;
        ex_fired = Quirk.Set.empty;
        ex_touched = Quirk.Set.empty;
        ex_reparsed = false;
        ex_mode_touched = false;
        ex_shadow = Quirk.Set.empty;
      }
  | Ok prog ->
      Cutil.Counter.incr runs;
      let parse_opts = parse_opts_of ~base:parse_opts quirks in
      (* copy, never mutate: [prog] may be shared across testbeds *)
      let prog =
        if strict && not prog.Jsast.Ast.prog_strict then
          { prog with Jsast.Ast.prog_strict = true }
        else prog
      in
      let compiled =
        if not fast then None
        else
          match Hashtbl.find_opt fe.fe_compiled strict with
          | Some cp -> Some cp
          | None ->
              let cp =
                Stage.time_sub Stage.compile (fun () -> Compile.compile prog)
              in
              Hashtbl.replace fe.fe_compiled strict cp;
              Some cp
      in
      (* a Fast context borrows the realm template and
         [Realm.release] rolls the write journal back after the run — on
         every exit path, including the deopt-to-tree replay, which must
         see a pristine realm *)
      let run_with runner =
        let ctx =
          Stage.time_sub Stage.realm (fun () ->
              make_ctx ~quirks ~parse_opts ~fuel ~coverage ~fast ())
        in
        bind_globals ctx;
        Fun.protect
          ~finally:(fun () -> if fast then Realm.release ())
          (fun () ->
            let status =
              try
                Stage.time_sub Stage.exec (fun () -> runner ctx);
                Sts_normal
              with
              | Value.Js_throw v ->
                  let name, msg =
                    match v with
                    | Value.Obj o ->
                        let get k =
                          match Value.find_own o k with
                          | Some p -> (
                              match p.Value.v with Value.Str s -> s | _ -> "")
                          | None -> ""
                        in
                        let n = get "name" in
                        ((if n = "" then "Error" else n), get "message")
                    | Value.Str s -> ("", s)
                    | v -> ("", Ops.number_to_string (match v with Value.Num f -> f | _ -> 0.0))
                  in
                  Sts_uncaught (name, msg)
              | Value.Engine_crash msg -> Sts_crash msg
              | Value.Out_of_fuel -> Sts_timeout
              | Stack_overflow -> Sts_crash "stack exhausted"
            in
            (ctx, status))
      in
      let tree_run ctx = ignore (Interp.exec_program ctx prog) in
      let ctx, status =
        match compiled with
        | None -> run_with tree_run
        | Some cp -> (
            (* if the compiled program hits a dynamic feature its slots
               cannot honour (a computed-access eval the static scan
               missed), the eval builtin raises before any side effect;
               discard the context and re-run tree-walked — not counted as
               a second execution, since it replays the same program *)
            match run_with (fun ctx -> ignore (Compile.run cp ctx)) with
            | exception Value.Deopt_to_tree -> run_with tree_run
            | r -> r)
      in
      let ex_fired = Value.fired_bits ctx in
      let ex_touched = Value.touched_bits ctx in
      let ex =
        {
          ex_result =
            {
              r_parsed = true;
              r_parse_error = None;
              r_status = status;
              r_output = Buffer.contents ctx.Value.out;
              r_fuel_used = ctx.Value.fuel_cap - ctx.Value.fuel;
              r_fired = Quirk.Set.union parse_fired ex_fired;
              r_touched = Quirk.Set.union parse_fired ex_touched;
              r_coverage =
                Option.map
                  (fun c -> Coverage.summarize c prog)
                  ctx.Value.coverage;
            };
          ex_quirks = quirks;
          ex_strict = strict;
          ex_fired;
          ex_touched;
          ex_reparsed = ctx.Value.reparsed;
          ex_mode_touched = ctx.Value.mode_touched;
          ex_shadow = Value.shadow_bits ctx;
        }
      in
      (* the result captured everything it needs as immutable copies; the
         ctx's buffer and scope table go back to the scratch *)
      if fast then Scratch.release ctx;
      ex

let run ?quirks ?parse_opts ?strict ?fuel ?coverage ?strategy ?frontend
    (src : string) : result =
  (run_exec ?quirks ?parse_opts ?strict ?fuel ?coverage ?strategy ?frontend
     src)
    .ex_result

(* Does an engine carrying [quirks], run in mode [strict], belong to
   [ex]'s behavioural equivalence class? In the representative's own mode,
   true iff it agrees with the representative at every checkpoint the
   representative's execution consulted — then every conformance decision
   resolves the same way, control flow is identical, and (in particular)
   exactly the same checkpoints get consulted, so the verdict is
   self-validating: no member can secretly reach a checkpoint outside
   [ex_touched]. A strict member may also join a sloppy representative
   that reached no mode-dependent site on the same condition: forcing the
   program strict then changes only that the run consults the shadow
   checkpoints as well, whose answer it never observes (a callee that
   reads its [this] marks the call mode-dependent), so the member need
   not agree on those. The decision is a handful of integer instructions
   on the bitsets — profiling shows class matching is the hottest set
   algebra in a campaign. *)
let shares_class ~quirks ~strict (ex : exec) : bool =
  (strict = ex.ex_strict || (strict && not ex.ex_mode_touched))
  && Quirk.Set.equal
       (Quirk.Set.inter quirks ex.ex_touched)
       (Quirk.Set.inter ex.ex_quirks ex.ex_touched)

(* The class member's result: execution is inherited verbatim; only the
   parse-stage quirk filter is per-member ([frontend] sank parse quirks
   unfiltered, and members sharing a front end may own different subsets).
   A quirk both sunk at parse time and fired during execution is on for
   every member (it is in the class key), so the union loses nothing.
   A strict member of a sloppy representative also consulted the shadow
   checkpoints, firing those in its own quirk set.
   The common case — the front end sank no parse-stage quirks at all, so
   the representative's and every member's parse filter are both empty,
   and the member runs in the representative's mode — returns the
   representative's result verbatim, allocating nothing; with ~100
   testbeds inheriting per shared execution this is the sharing layer's
   hottest path. *)
let share ~(frontend : frontend) ~quirks ~strict (ex : exec) : result =
  let r =
    if Quirk.Set.is_empty frontend.fe_fired then ex.ex_result
    else
      let parse_fired = Quirk.Set.inter frontend.fe_fired quirks in
      {
        ex.ex_result with
        r_fired = Quirk.Set.union parse_fired ex.ex_fired;
        r_touched = Quirk.Set.union parse_fired ex.ex_touched;
      }
  in
  if strict = ex.ex_strict || Quirk.Set.is_empty ex.ex_shadow then r
  else
    {
      r with
      r_fired = Quirk.Set.union r.r_fired (Quirk.Set.inter ex.ex_shadow quirks);
      r_touched = Quirk.Set.union r.r_touched ex.ex_shadow;
    }

(* The first field, in declaration order, on which two results differ. *)
let differing_field (a : result) (b : result) : string option =
  List.find_map
    (fun (field, same) -> if same then None else Some field)
    [
      ("parsed", a.r_parsed = b.r_parsed);
      ("parse error", a.r_parse_error = b.r_parse_error);
      ("status", a.r_status = b.r_status);
      ("output", String.equal a.r_output b.r_output);
      ("fuel", a.r_fuel_used = b.r_fuel_used);
      ("fired", Quirk.Set.equal a.r_fired b.r_fired);
      ("touched", Quirk.Set.equal a.r_touched b.r_touched);
      ("coverage", a.r_coverage = b.r_coverage);
    ]
