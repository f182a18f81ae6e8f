(* Realm snapshotting: build the builtin global environment once, then
   stamp out per-execution realms by structurally copying the template's
   object graph instead of re-running [Builtins.install].

   Profiling the campaign (BENCH_campaign.json, PR 3) shows that with
   execution sharing on, the dominant per-execution cost is not
   interpretation at all — typical generated programs burn well under a
   hundred fuel — but realm construction: several hundred objects and
   properties rebuilt from scratch for every run. A structural copy of a
   finished realm skips the closure allocation, the prototype-registry
   lookups, and the quadratic insertion-ordered property appends of a
   fresh install, and is several times cheaper.

   Soundness rests on three audited invariants of [Builtins.install]:

   - it never consults a quirk checkpoint, so the template is identical
     for every testbed and [ctx.touched]/[ctx.fired] start empty either
     way (verified by the resolve-parity test suite);
   - it burns no fuel, so [r_fuel_used] is unaffected;
   - every builtin implementation closure is realm-agnostic: it receives
     the calling [ctx] as an argument and resolves prototypes through
     [proto_of ctx], never by capturing an installing-realm object. The
     [Native] callables can therefore be shared between the template and
     its copies. ([Js_closure]/[Compiled] callables capture scopes and
     cannot appear in a template; [clone] rejects them.)

   Object ids are allocated fresh for each copy, in traversal rather than
   install order. This is unobservable: [oid] is an identity tag that no
   interpreter or builtin code ever reads, and the campaign executor
   already interleaves allocations arbitrarily across domains.

   The template is built lazily under a mutex (campaign worker domains
   may race to the first execution) and is immutable afterwards, so
   concurrent [clone]s may read it freely. *)

open Value

type t = {
  rt_global : obj;  (** the template's finished global object *)
  rt_protos : (string * obj) list;  (** its prototype registry *)
  rt_oid_base : int;
      (** template objects carry oids in [rt_oid_base, rt_oid_base +
          rt_oid_span); the clone memo is a plain array indexed by
          [oid - rt_oid_base], which profiles several times faster than a
          hash table at realm size *)
  rt_oid_span : int;
}

(* A throwaway context for running the one-time install. The hooks are
   never invoked during installation (nothing calls user code), and the
   quirk set is irrelevant because installation consults no checkpoints. *)
let build () : t =
  let oid0 = Atomic.get obj_counter in
  let global = make_obj ~oclass:"Object" () in
  let global_scope =
    { bindings = Hashtbl.create 16; parent = None; frozen_names = [] }
  in
  let ctx : ctx =
    {
      global;
      global_scope;
      quirks = Quirk.Set.empty;
      parse_opts = Jsparse.Parser.default_options;
      fuel = max_int;
      fuel_cap = max_int;
      out = Buffer.create 16;
      q_lo = 0;
      q_hi = 0;
      f_lo = 0;
      f_hi = 0;
      t_lo = 0;
      t_hi = 0;
      call_hook = (fun _ _ _ _ -> Undefined);
      eval_hook = (fun _ _ _ _ -> Undefined);
      coverage = None;
      loop_trip = 0;
      strconcat_drop_armed = true;
      protos = [];
      depth = 0;
      cur_this = Undefined;
      slotted = false;
      specials_shadowed = false;
      ic_gen = 0;
      ihits = 0;
      reparsed = false;
    }
  in
  Builtins.install ctx;
  let oid1 = Atomic.get obj_counter in
  (* the span may include oids allocated concurrently by other domains;
     that only costs unused memo slots — the clone walk can only ever
     reach template objects *)
  {
    rt_global = ctx.global;
    rt_protos = ctx.protos;
    rt_oid_base = oid0 + 1;
    rt_oid_span = oid1 - oid0 + 1;
  }

(* Mark every object reachable from the template as shared (cow = 1) so
   the [Value.barrier] write barrier journals a pre-image before its first
   mutation. The memo is the same span-indexed array the clone uses. *)
let mark_shared (t : t) : unit =
  let seen = Array.make t.rt_oid_span false in
  let rec mark_value v = match v with Obj o -> mark_obj o | _ -> ()
  and mark_obj (o : obj) =
    let i = o.oid - t.rt_oid_base in
    if not seen.(i) then begin
      seen.(i) <- true;
      o.cow <- 1;
      mark_value o.proto;
      List.iter
        (fun (_, p) ->
          mark_value p.v;
          Option.iter mark_value p.getter)
        o.props;
      Option.iter (fun a -> Array.iter mark_value a.elems) o.arr;
      Option.iter mark_value o.prim
    end
  in
  mark_obj t.rt_global;
  List.iter (fun (_, o) -> mark_obj o) t.rt_protos

(* One template per domain. Executions on a domain are sequential, so the
   copy-on-write journal (domain-local, see [Value.cow_journal]) never has
   two writers; nothing template-related is ever shared across domains.
   Building per domain costs one install (~147µs) amortised over every
   execution the domain ever runs. *)
let template_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let template () : t =
  let cell = Domain.DLS.get template_key in
  match !cell with
  | Some t -> t
  | None ->
      let t = build () in
      mark_shared t;
      cell := Some t;
      t

(* --- copy-on-write acquisition ---
   [acquire] hands out the domain's template *itself*; the write barrier
   journals pre-images of any template object the execution mutates, and
   [release] rolls the journal back so the next acquisition sees a
   pristine realm. [release] is idempotent (rolling back an empty journal
   is a no-op), so callers may release on every exit path. *)

let acquire () : obj * (string * obj) list =
  let t = template () in
  (t.rt_global, t.rt_protos)

let release () : unit = Value.cow_rollback ()

(* Audit mode: structurally compare the domain's (post-rollback) template
   against a freshly installed realm — any surviving mutation means a
   write-barrier gap, i.e. cross-execution leakage. Oids, cow state and
   version stamps are identity bookkeeping, not observable state, and are
   ignored. *)
let check_pristine () : (unit, string) result =
  let t = template () in
  let r = build () in
  let seen : (int, int) Hashtbl.t = Hashtbl.create 512 in
  let fail path what = Error (Printf.sprintf "%s: %s differs" path what) in
  let rec cmp_value path (a : value) (b : value) =
    match (a, b) with
    | Undefined, Undefined | Null, Null -> Ok ()
    | Bool x, Bool y when x = y -> Ok ()
    | Num x, Num y when x = y || (Float.is_nan x && Float.is_nan y) -> Ok ()
    | Str x, Str y when x = y -> Ok ()
    | Obj x, Obj y -> cmp_obj path x y
    | _ -> fail path "value"
  and cmp_obj path (a : obj) (b : obj) =
    match Hashtbl.find_opt seen a.oid with
    | Some oid when oid = b.oid -> Ok ()
    | Some _ -> fail path "object identity"
    | None ->
        Hashtbl.add seen a.oid b.oid;
        let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
        let* () = if a.oclass = b.oclass then Ok () else fail path "class" in
        let* () =
          if a.extensible = b.extensible then Ok () else fail path "extensible"
        in
        let* () =
          match (a.call, b.call) with
          | None, None -> Ok ()
          | Some (Native (n1, a1, _)), Some (Native (n2, a2, _))
            when n1 = n2 && a1 = a2 ->
              Ok ()
          | _ -> fail path "callable"
        in
        let* () =
          if List.map fst a.props = List.map fst b.props then Ok ()
          else fail path "property layout"
        in
        let* () =
          List.fold_left2
            (fun acc (k, pa) (_, pb) ->
              match acc with
              | Error _ -> acc
              | Ok () ->
                  let p = path ^ "." ^ k in
                  if
                    pa.writable = pb.writable
                    && pa.enumerable = pb.enumerable
                    && pa.configurable = pb.configurable
                  then
                    let g =
                      match (pa.getter, pb.getter) with
                      | None, None -> Ok ()
                      | Some x, Some y -> cmp_value (p ^ "[get]") x y
                      | _ -> fail p "getter"
                    in
                    (match g with Ok () -> cmp_value p pa.v pb.v | e -> e)
                  else fail p "attributes")
            (Ok ()) a.props b.props
        in
        let* () =
          match (a.arr, b.arr) with
          | None, None -> Ok ()
          | Some x, Some y
            when x.ty = y.ty && x.alen = y.alen
                 && x.length_writable = y.length_writable ->
              let r = ref (Ok ()) in
              for i = 0 to x.alen - 1 do
                match !r with
                | Error _ -> ()
                | Ok () ->
                    r :=
                      cmp_value
                        (Printf.sprintf "%s[%d]" path i)
                        x.elems.(i) y.elems.(i)
              done;
              !r
          | _ -> fail path "array storage"
        in
        let* () =
          match (a.prim, b.prim) with
          | None, None -> Ok ()
          | Some x, Some y -> cmp_value (path ^ "[prim]") x y
          | _ -> fail path "primitive"
        in
        let* () =
          match (a.regex, b.regex) with
          | None, None -> Ok ()
          | Some x, Some y
            when x.rx_source = y.rx_source && x.rx_flags = y.rx_flags ->
              Ok ()
          | _ -> fail path "regex"
        in
        let* () =
          match (a.dataview, b.dataview) with
          | None, None -> Ok ()
          | Some x, Some y when Bytes.equal x y -> Ok ()
          | _ -> fail path "dataview"
        in
        cmp_value (path ^ "[proto]") a.proto b.proto
  in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let* () = cmp_obj "global" t.rt_global r.rt_global in
  if List.map fst t.rt_protos <> List.map fst r.rt_protos then
    Error "prototype registry differs"
  else
    List.fold_left2
      (fun acc (n, a) (_, b) ->
        match acc with Error _ -> acc | Ok () -> cmp_obj n a b)
      (Ok ()) t.rt_protos r.rt_protos

(* Structural copy. The memo (an array indexed by template oid, see
   [rt_oid_base]) keeps shared structure shared in the copy — every
   function's prototype link back into the registry, the array generics
   aliased onto %TypedArray%.prototype, ... — and terminates cycles
   (constructor <-> prototype). The copy is registered in the memo before
   its fields are filled in. *)
type memo = { mm_base : int; mm_slots : obj option array }

let rec clone_value (memo : memo) (v : value) : value =
  match v with Obj o -> Obj (clone_obj memo o) | v -> v

and clone_prop (memo : memo) (p : prop) : prop =
  {
    p with
    v = clone_value memo p.v;
    getter = Option.map (clone_value memo) p.getter;
  }

and clone_obj (memo : memo) (o : obj) : obj =
  match memo.mm_slots.(o.oid - memo.mm_base) with
  | Some o' -> o'
  | None ->
      let o' =
        {
          o with
          oid = Atomic.fetch_and_add obj_counter 1 + 1;
          props = [];
          proto = Null;
          cow = 0;
          version = 0;
        }
      in
      memo.mm_slots.(o.oid - memo.mm_base) <- Some o';
      o'.proto <- clone_value memo o.proto;
      o'.props <- List.map (fun (k, p) -> (k, clone_prop memo p)) o.props;
      (o'.call <-
         (match o.call with
         | (None | Some (Native _)) as c -> c
         | Some (Js_closure _ | Compiled _) ->
             invalid_arg "Realm.clone: template contains a non-native closure"));
      o'.arr <-
        Option.map
          (fun a -> { a with elems = Array.map (clone_value memo) a.elems })
          o.arr;
      o'.prim <- Option.map (clone_value memo) o.prim;
      (* regex_data is immutable (the compiled program and its source);
         lastIndex lives in props *)
      o'.regex <- o.regex;
      o'.dataview <- Option.map Bytes.copy o.dataview;
      o'

(* One fresh realm: the copied global plus its prototype registry, mapped
   through the same memo so registry entries are the very objects hanging
   off the copied global. *)
let clone (t : t) : obj * (string * obj) list =
  let memo =
    { mm_base = t.rt_oid_base; mm_slots = Array.make t.rt_oid_span None }
  in
  let g = clone_obj memo t.rt_global in
  let protos = List.map (fun (n, o) -> (n, clone_obj memo o)) t.rt_protos in
  (g, protos)

(* Convenience used by [Run.make_ctx]. *)
let fresh () : obj * (string * obj) list = clone (template ())
