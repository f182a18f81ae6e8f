(* The realm template: the builtin global environment built once per
   process by [Builtins.install] and then lent to every [Fast] execution
   behind the [Value.barrier] copy-on-write write barrier.
   [release] rolls the write journal back, so each execution starts from
   a pristine realm without paying for an install of its own. [Reference]
   executions do not use the template: they install a realm each.

   Soundness rests on three audited invariants of [Builtins.install]:

   - it never consults a quirk checkpoint, so the template is identical
     for every testbed and [ctx.touched]/[ctx.fired] start empty either
     way;
   - it burns no fuel, so [r_fuel_used] is unaffected;
   - every builtin implementation closure is realm-agnostic: it receives
     the calling [ctx] as an argument and resolves prototypes through
     [proto_of ctx], never by capturing an installing-realm object.

   The Fast = Reference property tests compare the two realms on every
   execution they run, and [check_pristine] audits the template itself. *)

open Value

type t = {
  rt_global : obj;  (** the template's finished global object *)
  rt_protos : (string * obj) list;  (** its prototype registry *)
  rt_oid_base : int;
      (** template objects carry oids in [rt_oid_base, rt_oid_base +
          rt_oid_span); [mark_shared]'s visited set is a plain array
          indexed by [oid - rt_oid_base] *)
  rt_oid_span : int;
}

(* A throwaway context for running the one-time install. The hooks are
   never invoked during installation (nothing calls user code), and the
   quirk set is irrelevant because installation consults no checkpoints. *)
let build () : t =
  let oid0 = !obj_counter in
  let global = make_obj ~oclass:"Object" () in
  let global_scope =
    { bindings = Hashtbl.create 16; parent = None; frozen_names = [] }
  in
  let ctx : ctx =
    {
      global;
      global_scope;
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
      reparsed = false;
      mode_touched = false;
      s_lo = 0;
      s_hi = 0;
    }
  in
  Builtins.install ctx;
  let oid1 = !obj_counter in
  {
    rt_global = ctx.global;
    rt_protos = ctx.protos;
    rt_oid_base = oid0 + 1;
    rt_oid_span = oid1 - oid0 + 1;
  }

(* Mark every object reachable from the template as shared (cow = 1) so
   the [Value.barrier] write barrier journals a pre-image before its first
   mutation. *)
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

(* One template per process. Executions are sequential, so the
   copy-on-write journal (see [Value.cow_journal]) never has two writers.
   Building it costs one install (~147µs) amortised over every execution
   the process ever runs. *)
let cached_template : t option ref = ref None

let template () : t =
  match !cached_template with
  | Some t -> t
  | None ->
      let t = build () in
      mark_shared t;
      cached_template := Some t;
      t

(* --- copy-on-write acquisition ---
   [acquire] hands out the process's template *itself*; the write barrier
   journals pre-images of any template object the execution mutates, and
   [release] rolls the journal back so the next acquisition sees a
   pristine realm. [release] is idempotent (rolling back an empty journal
   is a no-op), so callers may release on every exit path. *)

let acquire () : obj * (string * obj) list =
  let t = template () in
  (t.rt_global, t.rt_protos)

let release () : unit = Value.cow_rollback ()

(* Audit mode: structurally compare the (post-rollback) template
   against a freshly installed realm — any surviving mutation means a
   write-barrier gap, i.e. cross-execution leakage. Oids and cow state
   are identity bookkeeping, not observable state, and are ignored; a
   property index the template has built must hold exactly its property
   list. *)
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
          (* the derived index, when built, must hold exactly [props] *)
          match a.index with
          | None -> Ok ()
          | Some t ->
              if
                Ptbl.length t = List.length a.props
                && List.for_all
                     (fun (k, p) ->
                       match Ptbl.find_opt t k with Some q -> q == p | None -> false)
                     a.props
              then Ok ()
              else fail path "property index"
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
                 && x.length_writable = y.length_writable
                 && x.elem_attrs = y.elem_attrs ->
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
