(* Closure compiler: one AST walk at compile time produces a tree of OCaml
   closures, so execution pays neither per-node match dispatch nor
   string-keyed scope-chain lookups. [Resolve] assigns every binding a
   static (depth, slot) coordinate; frames are [value ref array]s mirroring
   the tree-walker's scope chain one-for-one.

   Parity contract: a compiled program must be bit-for-bit equivalent to
   [Interp] — same output, same status, same fired/touched quirk sets, same
   fuel consumption, same coverage, same object-id allocation order. The
   compiled closures therefore burn fuel exactly where [Interp.eval] /
   [Interp.exec_stmt] do (1 per expression node, 1 per statement node, 2
   per call via the shared [Interp.call_function]) and replicate every
   quirk checkpoint in place. Anything the slot representation cannot
   honour deopts: per function ([Resolve.func_deopts] — the closure is
   created by [Interp.make_function] over a bridged Hashtbl scope chain)
   or per program ([Resolve.program_deopts] — the whole program
   tree-walks). *)

open Value
module Ast = Jsast.Ast
module R = Resolve

(* Sentinel marking a lexical (let/const) slot whose declaration has not
   executed yet; compared with physical equality only, so no program value
   can collide with it. *)
let absent : value = Str "\000<absent>\000"

(* Runtime frame: the compiled image of one [Value.scope]. [bridge] lazily
   materialises a real Hashtbl scope chain when a deopted (tree-walked)
   function closes over compiled frames. *)
type frame = {
  slots : value ref array;
  names : string array;         (** slot index -> binding name *)
  frz : string list;            (** [frozen_names] of the bridged scope *)
  parent : frame option;
  mutable bridge : scope option;
}

type gstate = {
  mutable gs_deopts : int;
  gs_folded : Quirk.Set.t;
      (** checkpoints the static reachability analysis proved unreachable;
          their compiled consultation sites fold to the quirk-off
          constant (see [checkpoint]) *)
  gs_cell : Quirk.Set.t;
      (** specialisation cell: one closure is compiled for the
          equivalence cell whose quirk set intersected with the inline
          checkpoints is exactly [gs_cell] — every compiled consultation
          bakes in its answer and only records the consultation *)
}

(* Checkpoint consultation at a compiled deviation site. The compilation
   is per cell, so every site constant-folds its answer. A statically-dead
   site folds to its quirk-off constant outright (the sound analysis
   guarantees the site cannot execute, and the Fast = Reference audit
   checks every Reference run's touched set against the static set); a
   live site keeps the [ctx.touched] recording — the execution-sharing
   class key — and bakes in the membership test and, when on, the
   [ctx.fired] attribution. *)
let checkpoint (gs : gstate) (q : Quirk.t) : ctx -> bool =
  if Quirk.Set.mem q gs.gs_folded then fun _ -> false
  else if Quirk.Set.mem q gs.gs_cell then fun ctx ->
    Value.touch_fire ctx q;
    true
  else fun ctx ->
    Value.touch ctx q;
    false

(* --- monomorphic inline caches --------------------------------------
   Compiled (specialised) property sites remember the last receiver they
   saw: on [a.k] (load, method load) the cache keys on the receiver's
   physical identity plus its layout [version] and short-circuits straight
   to the cached property record, skipping [Ops.get]'s dispatch and the
   [find_own] lookup (a short list walk, or a probe of the derived index
   on objects with many properties) at every level of the prototype
   chain; on [a.k = v] (store) likewise for a writable own property.
   Validity:

   - physical receiver identity pins the object; [version] is bumped by
     every layout mutation ([set_own], [remove_own], [defineProperty],
     freeze/seal, COW rollback), so a cached [prop] record can never be
     observed after the layout it belongs to is gone. Plain value stores
     ([p.v <- v]) don't bump — the cache holds the record, not the value.
   - [ctx.ic_gen] confines an entry to the execution that filled it:
     caches start cold every execution, making per-case hit counts
     deterministic, and a template object
     journaled by one execution can never serve a stale answer to the
     next.
   - only plain data properties ([getter = None]) of plain objects
     ([arr = None], [prim = None] — index/length magic lives on those
     storages) are cached; prototype loads additionally pin the holder's
     identity and version. Prototype links are never reassigned after
     construction, so receiver identity implies holder identity.

   A hit replays the miss path's observable effects exactly: it burns
   the 1 fuel [Ops.get]/[Ops.set] burns on entry, and the property-read
   path consults no quirk checkpoint (verified: [get]/[get_obj]/
   [get_plain] never call [fire]), so touched/fired are untouched either
   way. A store hit runs the same write [barrier] [set_plain] runs. *)

type ic_entry =
  | Ic_empty
  | Ic_own of int * obj * int * prop  (** gen, receiver, version, slot *)
  | Ic_proto of int * obj * int * obj * int * prop
      (** gen, receiver, version, holder, holder version, slot *)

type ic = { mutable ic_e : ic_entry }

let ic_cacheable_load (o : obj) (key : string) : ic_entry option =
  if o.arr <> None || o.prim <> None then None
  else
    match find_own o key with
    | Some p -> if p.getter = None then Some (Ic_own (0, o, o.version, p)) else None
    | None -> (
        match o.proto with
        | Obj h when h.arr = None && h.prim = None -> (
            match find_own h key with
            | Some p when p.getter = None ->
                Some (Ic_proto (0, o, o.version, h, h.version, p))
            | _ -> None)
        | _ -> None)

let ic_get (st : ic) ctx (recv : value) (key : string) : value =
  match recv with
  | Obj o -> (
      match st.ic_e with
      | Ic_own (gen, co, ver, p)
        when co == o && ver = o.version && gen = ctx.ic_gen ->
          burn ctx 1;
          ctx.ihits <- ctx.ihits + 1;
          p.v
      | Ic_proto (gen, co, ver, h, hver, p)
        when co == o && ver = o.version && hver = h.version
             && gen = ctx.ic_gen ->
          burn ctx 1;
          ctx.ihits <- ctx.ihits + 1;
          p.v
      | _ ->
          let r = Ops.get ctx recv key in
          (match ic_cacheable_load o key with
          | Some (Ic_own (_, o, v, p)) -> st.ic_e <- Ic_own (ctx.ic_gen, o, v, p)
          | Some (Ic_proto (_, o, v, h, hv, p)) ->
              st.ic_e <- Ic_proto (ctx.ic_gen, o, v, h, hv, p)
          | _ -> ());
          r)
  | _ -> Ops.get ctx recv key

let ic_set (st : ic) ctx ~strict (recv : value) (key : string) (v : value) :
    unit =
  match recv with
  | Obj o -> (
      match st.ic_e with
      | Ic_own (gen, co, ver, p)
        when co == o && ver = o.version && gen = ctx.ic_gen && p.writable ->
          burn ctx 1;
          ctx.ihits <- ctx.ihits + 1;
          barrier o;
          p.v <- v
      | _ -> (
          Ops.set ctx ~strict recv key v;
          if o.arr = None then
            match find_own o key with
            | Some p when p.getter = None && p.writable ->
                st.ic_e <- Ic_own (ctx.ic_gen, o, o.version, p)
            | _ -> ()))
  | _ -> Ops.set ctx ~strict recv key v

(* Process-wide count of specialised compilations, surfaced by campaign
   reports as [cp_specialized]. *)
let specialized = Atomic.make 0
let specialized_count () = Atomic.get specialized

(* Fold a forked campaign worker's specialisation delta into this
   process's count (see [Run.add_runs]). *)
let add_specialized n = if n > 0 then ignore (Atomic.fetch_and_add specialized n)

let mk_frame (names : string array) (frz : string list) (parent : frame option)
    : frame =
  {
    slots = Array.init (Array.length names) (fun _ -> ref absent);
    names;
    frz;
    parent;
    bridge = None;
  }

let rec frame_at (d : int) (fr : frame) : frame =
  if d = 0 then fr
  else
    match fr.parent with
    | Some p -> frame_at (d - 1) p
    | None -> invalid_arg "Compile.frame_at"

(* A Hashtbl scope backed by this frame's refs, for deopted functions.
   Cached per frame; slots installed after materialisation are propagated
   by [set_slot], so the bridge always agrees with the frame. *)
let rec bridge_of ctx (fr : frame) : scope =
  match fr.bridge with
  | Some s -> s
  | None ->
      let parent =
        match fr.parent with
        | Some p -> bridge_of ctx p
        | None -> ctx.global_scope
      in
      let s =
        {
          bindings = Hashtbl.create 8;
          parent = Some parent;
          frozen_names = fr.frz;
        }
      in
      Array.iteri
        (fun i r -> if not (!r == absent) then Hashtbl.replace s.bindings fr.names.(i) r)
        fr.slots;
      fr.bridge <- Some s;
      s

(* Install a fresh ref into a slot (let/const declaration, hoisted var or
   function, loop variable, catch parameter) — mirrors [Hashtbl.replace]
   in the tree-walker, including on any already-materialised bridge. *)
let set_slot (fr : frame) (i : int) (r : value ref) : unit =
  fr.slots.(i) <- r;
  match fr.bridge with
  | Some s -> Hashtbl.replace s.bindings fr.names.(i) r
  | None -> ()

(* --- identifier access chains ---

   An access compiles to: conditional (lexical) candidate slots innermost
   first, falling through slots still [absent]; then the fixed terminal if
   any; then a dynamic miss (the tree-walker's chain bottoms out at
   [ctx.global_scope], which only ever holds "this" and eval-introduced
   bindings — and eval deopts — so probing it keeps the fallbacks exact). *)

let chain_read (acc : R.access) (miss : ctx -> frame -> value) :
    ctx -> frame -> value =
  match (acc.R.ac_candidates, acc.R.ac_terminal) with
  | [], Some { R.tg_depth = 0; tg_slot = i; _ } -> fun _ fr -> !(fr.slots.(i))
  | [], Some { R.tg_depth = d; tg_slot = i; _ } ->
      fun _ fr -> !((frame_at d fr).slots.(i))
  | cands, term ->
      let cands = Array.of_list cands in
      let n = Array.length cands in
      fun ctx fr ->
        let rec go k =
          if k < n then begin
            let d, i = cands.(k) in
            let r = (frame_at d fr).slots.(i) in
            if !r == absent then go (k + 1) else !r
          end
          else
            match term with
            | Some { R.tg_depth = d; tg_slot = i; _ } ->
                !((frame_at d fr).slots.(i))
            | None -> miss ctx fr
        in
        go 0

let chain_ref (acc : R.access) (name : string) :
    ctx -> frame -> value ref option =
  let cands = Array.of_list acc.R.ac_candidates in
  let n = Array.length cands in
  fun ctx fr ->
    let rec go k =
      if k < n then begin
        let d, i = cands.(k) in
        let r = (frame_at d fr).slots.(i) in
        if !r == absent then go (k + 1) else Some r
      end
      else
        match acc.R.ac_terminal with
        | Some { R.tg_depth = d; tg_slot = i; _ } ->
            Some (frame_at d fr).slots.(i)
        | None -> Hashtbl.find_opt ctx.global_scope.bindings name
    in
    go 0

let compile_ident_read (env : R.level list) (name : string) :
    ctx -> frame -> value =
  chain_read (R.resolve_access env name) (fun ctx _ ->
      match Hashtbl.find_opt ctx.global_scope.bindings name with
      | Some r -> !r
      | None -> Interp.ident_read_miss ctx name)

(* [undefined] / [NaN] / [Infinity]: constant unless some executed program
   shadows one of them ([ctx.specials_shadowed]); then the tree-walker's
   lookup-with-constant-fallback, on the static chain. *)
let compile_special (env : R.level list) (name : string) (const : value) :
    ctx -> frame -> value =
  let read =
    chain_read (R.resolve_access env name) (fun ctx _ ->
        match Hashtbl.find_opt ctx.global_scope.bindings name with
        | Some r -> !r
        | None -> const)
  in
  fun ctx fr -> if not ctx.specials_shadowed then const else read ctx fr

let compile_typeof_ident (env : R.level list) (name : string) :
    ctx -> frame -> value =
  let cref = chain_ref (R.resolve_access env name) name in
  fun ctx fr ->
    match cref ctx fr with
    | Some r -> Str (type_of !r)
    | None -> Interp.ident_typeof_miss ctx name

(* Assignment to a bare identifier — the static image of
   [Interp.assign_ident], with the same frozen-binding checkpoint
   ([Q_named_funcexpr_binding_mutable]) at a frozen terminal. *)
let compile_assign_ident (gs : gstate) (env : R.level list) ~strict
    (name : string) : ctx -> frame -> value -> unit =
  let chk_nfe = checkpoint gs Quirk.Q_named_funcexpr_binding_mutable in
  let acc = R.resolve_access env name in
  match (acc.R.ac_candidates, acc.R.ac_terminal) with
  | [], Some { R.tg_depth = d; tg_slot = i; tg_frozen = false } ->
      if d = 0 then fun _ fr v -> fr.slots.(i) := v
      else fun _ fr v -> (frame_at d fr).slots.(i) := v
  | cands, term ->
      let cands = Array.of_list cands in
      let n = Array.length cands in
      fun ctx fr v ->
        let rec go k =
          if k < n then begin
            let d, i = cands.(k) in
            let r = (frame_at d fr).slots.(i) in
            if !r == absent then go (k + 1) else r := v
          end
          else
            match term with
            | Some { R.tg_depth = d; tg_slot = i; tg_frozen } ->
                if tg_frozen then begin
                  if chk_nfe ctx then (frame_at d fr).slots.(i) := v
                  else if strict then
                    Ops.type_error ctx
                      ("assignment to constant variable " ^ name)
                  (* sloppy: silent no-op *)
                end
                else (frame_at d fr).slots.(i) := v
            | None -> Interp.assign_ident ctx ctx.global_scope strict name v
        in
        go 0

(* [var x = v]: the tree-walker writes whatever [lookup] finds — including
   a nearer let binding — bypassing frozen checks (a direct ref write).
   Hoisting guarantees a fixed terminal exists on the chain. *)
let compile_var_write (env : R.level list) (name : string) :
    ctx -> frame -> value -> unit =
  let acc = R.resolve_access env name in
  let cands = Array.of_list acc.R.ac_candidates in
  let n = Array.length cands in
  fun _ fr v ->
    let rec go k =
      if k < n then begin
        let d, i = cands.(k) in
        let r = (frame_at d fr).slots.(i) in
        if !r == absent then go (k + 1) else r := v
      end
      else
        match acc.R.ac_terminal with
        | Some { R.tg_depth = d; tg_slot = i; _ } ->
            (frame_at d fr).slots.(i) := v
        | None -> failwith ("Compile: var binding not hoisted: " ^ name)
    in
    go 0

(* --- expressions and statements ---

   Every compiled expression closure burns 1 fuel on entry (the
   tree-walker's [eval] entry burn); every compiled statement closure burns
   1 and records statement coverage ([exec_stmt]'s preamble). Evaluation
   order inside each arm is forced with explicit lets to match the
   tree-walker exactly. *)

let rec compile_expr (gs : gstate) (env : R.level list) ~strict
    ~(frz : string list) (x : Ast.expr) : ctx -> frame -> value =
  let ce e = compile_expr gs env ~strict ~frz e in
  match x.Ast.e with
  | Ast.Lit Ast.Lnull -> fun ctx _ -> burn ctx 1; Null
  | Ast.Lit (Ast.Lbool b) ->
      let v = Bool b in
      fun ctx _ -> burn ctx 1; v
  | Ast.Lit (Ast.Lnum f) ->
      let v = Num f in
      fun ctx _ -> burn ctx 1; v
  | Ast.Lit (Ast.Lstr s) ->
      let v = Str s in
      fun ctx _ -> burn ctx 1; v
  | Ast.Lit (Ast.Lregexp (pat, flags)) ->
      fun ctx _ -> burn ctx 1; Interp.make_regexp ctx pat flags
  | Ast.Ident "undefined" ->
      let read = compile_special env "undefined" Undefined in
      fun ctx fr -> burn ctx 1; read ctx fr
  | Ast.Ident "NaN" ->
      let read = compile_special env "NaN" (Num Float.nan) in
      fun ctx fr -> burn ctx 1; read ctx fr
  | Ast.Ident "Infinity" ->
      let read = compile_special env "Infinity" (Num Float.infinity) in
      fun ctx fr -> burn ctx 1; read ctx fr
  | Ast.Ident name ->
      let read = compile_ident_read env name in
      fun ctx fr -> burn ctx 1; read ctx fr
  | Ast.This -> fun ctx _ -> burn ctx 1; ctx.cur_this
  | Ast.Array_lit elems ->
      let elcs =
        List.map (function Some e -> Some (ce e) | None -> None) elems
      in
      fun ctx fr ->
        burn ctx 1;
        let vals =
          List.map
            (function Some ec -> ec ctx fr | None -> Undefined)
            elcs
        in
        Obj (Ops.make_array ctx vals)
  | Ast.Object_lit props ->
      let pcs =
        List.map
          (fun (pn, vx) ->
            let kc =
              match pn with
              | Ast.PN_ident n -> `Const n
              | Ast.PN_str s -> `Const s
              | Ast.PN_num f -> `Const (Ops.number_to_string f)
              | Ast.PN_computed e -> `Dyn (ce e)
            in
            (kc, ce vx))
          props
      in
      fun ctx fr ->
        burn ctx 1;
        let o = make_obj ~oclass:"Object" ~proto:(proto_of ctx "Object") () in
        List.iter
          (fun (kc, vc) ->
            let key =
              match kc with
              | `Const k -> k
              | `Dyn kc -> Ops.to_string ctx (kc ctx fr)
            in
            let v = vc ctx fr in
            set_own o key (mkprop v))
          pcs;
        Obj o
  | Ast.Func f ->
      let mk = compile_function gs env ~strict ~frz ~node_id:x.Ast.eid f in
      fun ctx fr -> burn ctx 1; mk ctx fr
  | Ast.Arrow f ->
      let mk = compile_function gs env ~strict ~frz ~node_id:x.Ast.eid f in
      fun ctx fr -> burn ctx 1; mk ctx fr
  | Ast.Unary (Ast.Utypeof, { Ast.e = Ast.Ident name; _ }) ->
      let tc = compile_typeof_ident env name in
      fun ctx fr -> burn ctx 1; tc ctx fr
  | Ast.Unary (Ast.Utypeof, ox) ->
      let oc = ce ox in
      fun ctx fr -> burn ctx 1; Str (type_of (oc ctx fr))
  | Ast.Unary (Ast.Udelete, { Ast.e = Ast.Member (ox, prop); _ }) ->
      let oc = ce ox in
      let kc =
        match prop with
        | Ast.Pfield n -> `Const n
        | Ast.Pindex e -> `Dyn (ce e)
      in
      fun ctx fr ->
        burn ctx 1;
        let ov = oc ctx fr in
        let key =
          match kc with
          | `Const k -> k
          | `Dyn kc -> Ops.to_string ctx (kc ctx fr)
        in
        (match ov with
        | Obj obj -> Bool (Ops.delete ctx ~strict obj key)
        | _ -> Bool true)
  | Ast.Unary (Ast.Udelete, { Ast.e = Ast.Ident name; _ }) ->
      (* unreachable in practice: [Resolve.stmts_deopt] deopts the whole
         enclosing function (or program) on [delete ident]; kept as an
         exact fallback via the bridge chain *)
      fun ctx fr ->
        burn ctx 1;
        if Ops.has_own ctx ctx.global name then
          Bool (Ops.delete ctx ~strict ctx.global name)
        else Bool (Interp.lookup (bridge_of ctx fr) name = None)
  | Ast.Unary (Ast.Udelete, ox) ->
      let oc = ce ox in
      fun ctx fr ->
        burn ctx 1;
        ignore (oc ctx fr);
        Bool true
  | Ast.Unary (Ast.Uvoid, ox) ->
      let oc = ce ox in
      fun ctx fr ->
        burn ctx 1;
        ignore (oc ctx fr);
        Undefined
  | Ast.Unary (Ast.Unot, ox) ->
      let oc = ce ox in
      fun ctx fr ->
        burn ctx 1;
        Bool (not (Ops.to_boolean (oc ctx fr)))
  | Ast.Unary (Ast.Uneg, ox) ->
      let oc = ce ox in
      let chk_negz = checkpoint gs Quirk.Q_codegen_neg_zero_positive in
      fun ctx fr ->
        burn ctx 1;
        let f = Ops.to_number ctx (oc ctx fr) in
        let r = -.f in
        if r = 0.0 && chk_negz ctx then Num 0.0 else Num r
  | Ast.Unary (Ast.Uplus, ox) ->
      let oc = ce ox in
      fun ctx fr ->
        burn ctx 1;
        Num (Ops.to_number ctx (oc ctx fr))
  | Ast.Unary (Ast.Ubnot, ox) ->
      let oc = ce ox in
      fun ctx fr ->
        burn ctx 1;
        let i = Ops.to_int32 ctx (oc ctx fr) in
        Num (Int32.to_float (Int32.lognot i))
  | Ast.Binary (op, ax, bx) ->
      let ac = ce ax and bc = ce bx in
      fun ctx fr ->
        burn ctx 1;
        let a = ac ctx fr in
        let b = bc ctx fr in
        Interp.apply_binop ctx op a b
  | Ast.Logical (op, ax, bx) -> (
      let ac = ce ax and bc = ce bx in
      let eid = x.Ast.eid in
      match op with
      | Ast.And ->
          fun ctx fr ->
            burn ctx 1;
            let va = ac ctx fr in
            if Ops.to_boolean va then begin
              Interp.cov_branch ctx eid 1;
              bc ctx fr
            end
            else begin
              Interp.cov_branch ctx eid 0;
              va
            end
      | Ast.Or ->
          fun ctx fr ->
            burn ctx 1;
            let va = ac ctx fr in
            if Ops.to_boolean va then begin
              Interp.cov_branch ctx eid 0;
              va
            end
            else begin
              Interp.cov_branch ctx eid 1;
              bc ctx fr
            end)
  | Ast.Assign (op, lhs, rhs) -> (
      let rc = ce rhs in
      let assign = compile_assign_target gs env ~strict ~frz lhs in
      match op with
      | None ->
          fun ctx fr ->
            burn ctx 1;
            let v = rc ctx fr in
            assign ctx fr v;
            v
      | Some bop ->
          let lread = ce lhs in
          let chk_concat = checkpoint gs Quirk.Q_opt_loop_strconcat_drops in
          fun ctx fr ->
            burn ctx 1;
            let rv = rc ctx fr in
            let old = lread ctx fr in
            let result = Interp.apply_binop ctx bop old rv in
            (* optimizer quirk: one [+=] string append lost in a
               long-running loop — same checkpoint as [Interp.eval_assign] *)
            let v =
              match (result, bop) with
              | Str _, Ast.Add
                when ctx.loop_trip > 100 && ctx.strconcat_drop_armed
                     && chk_concat ctx ->
                  ctx.strconcat_drop_armed <- false;
                  old
              | _ -> result
            in
            assign ctx fr v;
            v)
  | Ast.Update (op, prefix, target) ->
      let tc = ce target in
      let assign = compile_assign_target gs env ~strict ~frz target in
      fun ctx fr ->
        burn ctx 1;
        let old = Ops.to_number ctx (tc ctx fr) in
        let nv =
          match op with Ast.Incr -> old +. 1.0 | Ast.Decr -> old -. 1.0
        in
        assign ctx fr (Num nv);
        if prefix then Num nv else Num old
  | Ast.Cond (cx, tx, fx) ->
      let cc = ce cx and tc = ce tx and fc = ce fx in
      let eid = x.Ast.eid in
      fun ctx fr ->
        burn ctx 1;
        if Ops.to_boolean (cc ctx fr) then begin
          Interp.cov_branch ctx eid 0;
          tc ctx fr
        end
        else begin
          Interp.cov_branch ctx eid 1;
          fc ctx fr
        end
  | Ast.Call (fx, args) -> (
      let argcs = List.map ce args in
      match fx.Ast.e with
      | Ast.Member (ox, Ast.Pfield key) ->
          (* specialised method call on a constant key: the method load
             goes through an inline cache *)
          let oc = ce ox in
          let st = { ic_e = Ic_empty } in
          fun ctx fr ->
            burn ctx 1;
            let ov = oc ctx fr in
            let fv = ic_get st ctx ov key in
            if not (is_callable fv) then
              Ops.type_error ctx
                (Printf.sprintf "%s.%s is not a function" (type_of ov) key);
            let argv = List.map (fun ac -> ac ctx fr) argcs in
            Interp.call_function ctx fv ov argv
      | Ast.Member (ox, Ast.Pindex e) ->
          (* method call: receiver becomes [this]; the Member node itself
             is never evaluated by [Interp.eval_call], so it pays no burn *)
          let oc = ce ox in
          let kc = ce e in
          fun ctx fr ->
            burn ctx 1;
            let ov = oc ctx fr in
            let key = Ops.to_string ctx (kc ctx fr) in
            let fv = Ops.get ctx ov key in
            if not (is_callable fv) then
              Ops.type_error ctx
                (Printf.sprintf "%s.%s is not a function" (type_of ov) key);
            let argv = List.map (fun ac -> ac ctx fr) argcs in
            Interp.call_function ctx fv ov argv
      | _ ->
          let fc = ce fx in
          fun ctx fr ->
            burn ctx 1;
            let fv = fc ctx fr in
            let argv = List.map (fun ac -> ac ctx fr) argcs in
            Interp.call_function ctx fv Undefined argv)
  | Ast.New (fx, args) ->
      let fc = ce fx in
      let argcs = List.map ce args in
      fun ctx fr ->
        burn ctx 1;
        let fv = fc ctx fr in
        let argv = List.map (fun ac -> ac ctx fr) argcs in
        Interp.construct ctx fv argv
  | Ast.Member (ox, prop) -> (
      let oc = ce ox in
      match prop with
      | Ast.Pfield n ->
          let st = { ic_e = Ic_empty } in
          fun ctx fr ->
            burn ctx 1;
            let ov = oc ctx fr in
            ic_get st ctx ov n
      | Ast.Pindex e ->
          let kc = ce e in
          fun ctx fr ->
            burn ctx 1;
            let ov = oc ctx fr in
            let kv = kc ctx fr in
            Ops.get_index ctx ov kv)
  | Ast.Seq (ax, bx) ->
      let ac = ce ax and bc = ce bx in
      fun ctx fr ->
        burn ctx 1;
        ignore (ac ctx fr);
        bc ctx fr
  | Ast.Template parts ->
      let pcs =
        List.map
          (function Ast.Tstr s -> `S s | Ast.Tsub e -> `E (ce e))
          parts
      in
      fun ctx fr ->
        burn ctx 1;
        let buf = Buffer.create 16 in
        List.iter
          (function
            | `S s -> Buffer.add_string buf s
            | `E ec -> Buffer.add_string buf (Ops.to_string ctx (ec ctx fr)))
          pcs;
        Str (Buffer.contents buf)

(* The write half of [Interp.assign_to]: Ident via the static chain,
   Member re-evaluating object and key (as the tree-walker does for update
   and compound assignment), anything else a TypeError when invoked. *)
and compile_assign_target gs env ~strict ~frz (lhs : Ast.expr) :
    ctx -> frame -> value -> unit =
  match lhs.Ast.e with
  | Ast.Ident name -> compile_assign_ident gs env ~strict name
  | Ast.Member (ox, prop) -> (
      let oc = compile_expr gs env ~strict ~frz ox in
      match prop with
      | Ast.Pindex ix ->
          let kc = compile_expr gs env ~strict ~frz ix in
          let chk_bool = checkpoint gs Quirk.Q_bool_prop_appends_to_array in
          fun ctx fr v -> (
            let ov = oc ctx fr in
            let kv = kc ctx fr in
            (* QuickJS quirk (Listing 6): boolean key on an array appends *)
            match (ov, kv) with
            | Obj ({ arr = Some arr; _ } as o), Bool true
              when arr.ty = None && chk_bool ctx ->
                Ops.array_store ctx o arr arr.alen v
            | _ -> Ops.set_index ctx ~strict ov kv v)
      | Ast.Pfield key ->
          let st = { ic_e = Ic_empty } in
          fun ctx fr v ->
            let ov = oc ctx fr in
            ic_set st ctx ~strict ov key v)
  | _ -> fun ctx _ _ -> Ops.type_error ctx "invalid assignment target"

(* Statement bodies that the tree-walker runs in a fresh block scope:
   collect the reachable let/const names, elide the frame when there are
   none (Hashtbl scopes are unobservable when empty), otherwise build one
   fresh frame per entry. *)
and compile_block gs env ~strict ~frz (stmts : Ast.stmt list) :
    ctx -> frame -> unit =
  match R.lexical_names stmts with
  | [] ->
      let body = List.map (compile_stmt gs env ~strict ~frz) stmts in
      fun ctx fr -> List.iter (fun sc -> sc ctx fr) body
  | lex ->
      let lvl = R.new_level () in
      List.iter
        (fun n -> ignore (R.declare lvl n ~fixed:false ~frozen:false))
        lex;
      let names = R.names lvl and frzn = R.frozen_names lvl in
      let body = List.map (compile_stmt gs (lvl :: env) ~strict ~frz) stmts in
      fun ctx fr ->
        let bf = mk_frame names frzn (Some fr) in
        List.iter (fun sc -> sc ctx bf) body

and compile_stmt gs env ~strict ~frz (st : Ast.stmt) : ctx -> frame -> unit =
  let inner = compile_stmt_desc gs env ~strict ~frz st in
  fun ctx fr ->
    burn ctx 1;
    Interp.cov_stmt ctx st;
    inner ctx fr

and compile_stmt_desc gs env ~strict ~frz (st : Ast.stmt) :
    ctx -> frame -> unit =
  let ce e = compile_expr gs env ~strict ~frz e in
  let sid = st.Ast.sid in
  match st.Ast.s with
  | Ast.Expr_stmt x ->
      let xc = ce x in
      fun ctx fr -> ignore (xc ctx fr)
  | Ast.Var_decl (kind, decls) ->
      let items =
        List.map
          (fun (n, init) ->
            let ic = Option.map ce init in
            match kind with
            | Ast.Var -> (
                match ic with
                | None -> `Nop (* lookup only; no write, no effect *)
                | Some ic -> `Var (ic, compile_var_write env n))
            | Ast.Let | Ast.Const ->
                let slot =
                  match R.slot_of (List.hd env) n with
                  | Some s -> s
                  | None -> failwith ("Compile: unresolved lexical " ^ n)
                in
                `Lex (ic, slot))
          decls
      in
      fun ctx fr ->
        List.iter
          (function
            | `Nop -> ()
            | `Var (ic, w) ->
                let v = ic ctx fr in
                w ctx fr v
            | `Lex (ic, slot) ->
                let v = match ic with Some ic -> ic ctx fr | None -> Undefined in
                set_slot fr slot (ref v))
          items
  | Ast.Func_decl _ -> fun _ _ -> () (* installed during hoisting *)
  | Ast.Return x -> (
      match x with
      | Some x ->
          let xc = ce x in
          fun ctx fr -> raise (Interp.Return_exc (xc ctx fr))
      | None -> fun _ _ -> raise (Interp.Return_exc Undefined))
  | Ast.If (c, t, f) -> (
      let cc = ce c in
      let tc = compile_stmt gs env ~strict ~frz t in
      match f with
      | Some f ->
          let fc = compile_stmt gs env ~strict ~frz f in
          fun ctx fr ->
            if Ops.to_boolean (cc ctx fr) then begin
              Interp.cov_branch ctx sid 0;
              tc ctx fr
            end
            else begin
              Interp.cov_branch ctx sid 1;
              fc ctx fr
            end
      | None ->
          fun ctx fr ->
            if Ops.to_boolean (cc ctx fr) then begin
              Interp.cov_branch ctx sid 0;
              tc ctx fr
            end
            else Interp.cov_branch ctx sid 1)
  | Ast.Block body -> compile_block gs env ~strict ~frz body
  | Ast.For (init, cond, upd, body) ->
      (* the for scope holds let/const init declarations plus the lexicals
         of an unbraced body; a var init writes through the outer chain
         (its conditionals are all still absent while init runs, exactly
         the tree-walker's [lookup scope]) *)
      let lvl = R.new_level () in
      (match init with
      | Some (Ast.FI_decl ((Ast.Let | Ast.Const), decls)) ->
          List.iter
            (fun (n, _) -> ignore (R.declare lvl n ~fixed:false ~frozen:false))
            decls
      | _ -> ());
      List.iter
        (fun n -> ignore (R.declare lvl n ~fixed:false ~frozen:false))
        (R.lexical_names [ body ]);
      let has_frame = R.size lvl > 0 in
      let fenv = if has_frame then lvl :: env else env in
      let names = R.names lvl and frzn = R.frozen_names lvl in
      let cef e = compile_expr gs fenv ~strict ~frz e in
      let initc =
        match init with
        | Some (Ast.FI_decl (kind, decls)) ->
            let items =
              List.map
                (fun (n, i) ->
                  let ic = Option.map cef i in
                  match kind with
                  | Ast.Var -> (
                      match ic with
                      | None -> `Nop
                      | Some ic -> `Var (ic, compile_var_write env n))
                  | Ast.Let | Ast.Const ->
                      let slot = Option.get (R.slot_of lvl n) in
                      `Lex (ic, slot))
                decls
            in
            Some (`Decl items)
        | Some (Ast.FI_expr x) -> Some (`Expr (cef x))
        | None -> None
      in
      let condc = Option.map cef cond in
      let updc = Option.map cef upd in
      let bodyc = compile_stmt gs fenv ~strict ~frz body in
      fun ctx fr ->
        let ffr = if has_frame then mk_frame names frzn (Some fr) else fr in
        (match initc with
        | Some (`Decl items) ->
            List.iter
              (function
                | `Nop -> ()
                | `Var (ic, w) ->
                    let v = ic ctx ffr in
                    w ctx fr v
                | `Lex (ic, slot) ->
                    let v =
                      match ic with Some ic -> ic ctx ffr | None -> Undefined
                    in
                    set_slot ffr slot (ref v))
              items
        | Some (`Expr xc) -> ignore (xc ctx ffr)
        | None -> ());
        Interp.run_loop ctx sid (fun () ->
            let go =
              match condc with
              | Some cc -> Ops.to_boolean (cc ctx ffr)
              | None -> true
            in
            if go then begin
              (try bodyc ctx ffr with Interp.Continue_exc None -> ());
              (match updc with
              | Some uc -> ignore (uc ctx ffr)
              | None -> ());
              true
            end
            else false)
  | Ast.While (c, body) ->
      let cc = ce c in
      let bodyc = compile_stmt gs env ~strict ~frz body in
      fun ctx fr ->
        Interp.run_loop ctx sid (fun () ->
            if Ops.to_boolean (cc ctx fr) then begin
              (try bodyc ctx fr with Interp.Continue_exc None -> ());
              true
            end
            else false)
  | Ast.Do_while (body, c) ->
      let cc = ce c in
      let bodyc = compile_stmt gs env ~strict ~frz body in
      fun ctx fr ->
        Interp.run_loop ctx sid (fun () ->
            (try bodyc ctx fr with Interp.Continue_exc None -> ());
            Ops.to_boolean (cc ctx fr))
  | Ast.For_in (kind, name, objx, body) ->
      let oc = ce objx in
      let loop = compile_iter_var gs env ~strict ~frz kind name body in
      fun ctx fr ->
        let ov = oc ctx fr in
        let keys =
          match ov with
          | Obj o -> Ops.enum_keys ctx o
          | Str s -> List.init (String.length s) string_of_int
          | _ -> []
        in
        loop ctx fr sid (List.map (fun k -> Str k) keys)
  | Ast.For_of (kind, name, objx, body) ->
      let oc = ce objx in
      let loop = compile_iter_var gs env ~strict ~frz kind name body in
      fun ctx fr ->
        let ov = oc ctx fr in
        let items =
          match ov with
          | Obj ({ arr = Some _; _ } as o) -> Ops.array_values o
          | Str str ->
              List.init (String.length str) (fun i ->
                  Str (String.make 1 str.[i]))
          | _ -> Ops.type_error ctx "value is not iterable"
        in
        loop ctx fr sid items
  | Ast.Break l -> fun _ _ -> raise (Interp.Break_exc l)
  | Ast.Continue l -> fun _ _ -> raise (Interp.Continue_exc l)
  | Ast.Throw x ->
      let xc = ce x in
      fun ctx fr -> raise (Js_throw (xc ctx fr))
  | Ast.Try (body, handler, finalizer) ->
      let bc = compile_block gs env ~strict ~frz body in
      let fin = Option.map (compile_block gs env ~strict ~frz) finalizer in
      let hc =
        Option.map
          (fun (param, hbody) ->
            let lvl = R.new_level () in
            let pslot = R.declare lvl param ~fixed:true ~frozen:false in
            List.iter
              (fun n -> ignore (R.declare lvl n ~fixed:false ~frozen:false))
              (R.lexical_names hbody);
            let names = R.names lvl and frzn = R.frozen_names lvl in
            let hb =
              List.map (compile_stmt gs (lvl :: env) ~strict ~frz) hbody
            in
            (pslot, names, frzn, hb))
          handler
      in
      fun ctx fr ->
        let run_finally () =
          match fin with Some fc -> fc ctx fr | None -> ()
        in
        (try
           bc ctx fr;
           run_finally ()
         with
        | Js_throw v -> (
            match hc with
            | Some (pslot, names, frzn, hb) ->
                let hf = mk_frame names frzn (Some fr) in
                set_slot hf pslot (ref v);
                (try List.iter (fun sc -> sc ctx hf) hb
                 with e ->
                   run_finally ();
                   raise e);
                run_finally ()
            | None ->
                run_finally ();
                raise (Js_throw v))
        | e ->
            run_finally ();
            raise e)
  | Ast.Switch (d, cases) ->
      let dc = ce d in
      (* one scope for every case body, as in the tree-walker *)
      let lvl = R.new_level () in
      List.iter
        (fun n -> ignore (R.declare lvl n ~fixed:false ~frozen:false))
        (R.lexical_names (List.concat_map snd cases));
      let has_frame = R.size lvl > 0 in
      let senv = if has_frame then lvl :: env else env in
      let names = R.names lvl and frzn = R.frozen_names lvl in
      let tests =
        List.map
          (fun (c, _) -> Option.map (compile_expr gs senv ~strict ~frz) c)
          cases
      in
      let bodies =
        List.map
          (fun (_, body) -> List.map (compile_stmt gs senv ~strict ~frz) body)
          cases
      in
      let default_idx = List.find_index (fun (c, _) -> c = None) cases in
      fun ctx fr ->
        let dv = dc ctx fr in
        let sf = if has_frame then mk_frame names frzn (Some fr) else fr in
        let rec find i = function
          | [] -> default_idx
          | Some tc :: rest ->
              if Ops.strict_equals dv (tc ctx sf) then Some i
              else find (i + 1) rest
          | None :: rest -> find (i + 1) rest
        in
        (match find 0 tests with
        | None -> ()
        | Some start -> (
            Interp.cov_branch ctx sid start;
            try
              List.iteri
                (fun i body ->
                  if i >= start then List.iter (fun sc -> sc ctx sf) body)
                bodies
            with Interp.Break_exc None -> ()))
  | Ast.Labeled (label, inner) -> (
      let bodyc = compile_stmt gs env ~strict ~frz inner in
      fun ctx fr ->
        try bodyc ctx fr with
        | Interp.Break_exc (Some l) when l = label -> ()
        | Interp.Continue_exc (Some l) when l = label -> ())
  | Ast.Empty | Ast.Debugger -> fun _ _ -> ()

(* Shared by For_in / For_of: resolve the loop variable exactly as the
   tree-walker does (lexical kinds bind in the loop scope; var/none kinds
   reuse the binding [lookup] finds, installing into the loop scope only on
   a miss), build the per-execution loop frame, and drive
   [Interp.iterate_loop]. *)
and compile_iter_var gs env ~strict ~frz kind name body :
    ctx -> frame -> int -> value list -> unit =
  let lvl = R.new_level () in
  let var_plan =
    match kind with
    | Some (Ast.Let | Ast.Const) ->
        `Lexical (R.declare lvl name ~fixed:true ~frozen:false)
    | Some Ast.Var | None ->
        `Chain
          ( chain_ref (R.resolve_access env name) name,
            R.declare lvl name ~fixed:false ~frozen:false )
  in
  List.iter
    (fun n -> ignore (R.declare lvl n ~fixed:false ~frozen:false))
    (R.lexical_names [ body ]);
  let names = R.names lvl and frzn = R.frozen_names lvl in
  let bodyc = compile_stmt gs (lvl :: env) ~strict ~frz body in
  fun ctx fr sid items ->
    let lf = mk_frame names frzn (Some fr) in
    let r =
      match var_plan with
      | `Lexical slot ->
          let r = ref Undefined in
          set_slot lf slot r;
          r
      | `Chain (cref, slot) -> (
          match cref ctx fr with
          | Some r -> r
          | None ->
              let r = ref Undefined in
              set_slot lf slot r;
              r)
    in
    Interp.iterate_loop ctx sid items (fun v ->
        r := v;
        try bodyc ctx lf with Interp.Continue_exc None -> ())

(* Compile a function (or arrow) definition into a creation closure. The
   creation closure mirrors [Interp.make_function]'s allocation order
   exactly (Function object, then fresh .prototype); the call closure
   mirrors the [Js_closure] arm of [Interp.call_function] step for step
   (params, this, coverage, arguments object, var hoisting, function
   installs, depth accounting). Functions using features the slot
   representation cannot honour fall back to [Interp.make_function] over a
   bridge of the creation frame — a per-function, not per-program, deopt. *)
and compile_function gs env ~strict ~frz ~node_id (f : Ast.func) :
    ctx -> frame -> value =
  if R.func_deopts ~frozen:frz f then begin
    gs.gs_deopts <- gs.gs_deopts + 1;
    if f.Ast.is_arrow then fun ctx fr ->
      Interp.make_function ctx ~node_id ~strict ~this_lex:(Some ctx.cur_this) f
        (bridge_of ctx fr)
    else fun ctx fr ->
      Interp.make_function ctx ~node_id ~strict f (bridge_of ctx fr)
  end
  else begin
    let strict_f = strict || Interp.body_is_strict f.Ast.body in
    let chk_this = checkpoint gs Quirk.Q_strict_this_is_global in
    (* named function expressions (and declarations) see their own name as
       an immutable binding in a scope of its own *)
    let self, env, frz =
      match f.Ast.fname with
      | Some n when not f.Ast.is_arrow ->
          let lvl = R.new_level () in
          let slot = R.declare lvl n ~fixed:true ~frozen:true in
          (Some (slot, R.names lvl, R.frozen_names lvl), lvl :: env, n :: frz)
      | _ -> (None, env, frz)
    in
    let flevel = R.new_level () in
    let param_slots =
      List.map (fun p -> R.declare flevel p ~fixed:true ~frozen:false) f.Ast.params
    in
    let this_slot = R.declare flevel "this" ~fixed:true ~frozen:false in
    let arguments_slot =
      if f.Ast.is_arrow then None
      else Some (R.declare flevel "arguments" ~fixed:true ~frozen:false)
    in
    let vars, funcs = R.hoisted f.Ast.body in
    let var_slots =
      List.filter_map
        (fun n ->
          if R.find flevel n <> None then None (* param/arguments: kept *)
          else Some (R.declare flevel n ~fixed:true ~frozen:false))
        vars
    in
    let func_slots =
      List.map
        (fun ((_, fj) : int * Ast.func) ->
          let fname = Option.value fj.Ast.fname ~default:"" in
          R.declare flevel fname ~fixed:true ~frozen:false)
        funcs
    in
    List.iter
      (fun n -> ignore (R.declare flevel n ~fixed:false ~frozen:false))
      (R.lexical_names f.Ast.body);
    let benv = flevel :: env in
    let fcreates =
      List.map2
        (fun ((sid, fj) : int * Ast.func) slot ->
          (slot, compile_function gs benv ~strict:strict_f ~frz ~node_id:sid fj))
        funcs func_slots
    in
    let body_code = List.map (compile_stmt gs benv ~strict:strict_f ~frz) f.Ast.body in
    let fnames = R.names flevel and ffrz = R.frozen_names flevel in
    let fname = match f.Ast.fname with Some n -> n | None -> "" in
    let params = f.Ast.params in
    let nparams = List.length params in
    let is_arrow = f.Ast.is_arrow in
    fun ctx fr ->
      let o = make_obj ~oclass:"Function" ~proto:(proto_of ctx "Function") () in
      let parent_fr, binding =
        match self with
        | Some (slot, snames, sfrz) ->
            let sf = mk_frame snames sfrz (Some fr) in
            let r = ref Undefined in
            sf.slots.(slot) <- r;
            (sf, Some r)
        | None -> (fr, None)
      in
      let lex_this = if is_arrow then Some ctx.cur_this else None in
      let co_call ctx this args =
        (* caller ([Interp.call_function]) already burned 2 and checked
           the stack depth *)
        let frm = mk_frame fnames ffrz (Some parent_fr) in
        List.iteri
          (fun i slot ->
            let v =
              match List.nth_opt args i with Some v -> v | None -> Undefined
            in
            set_slot frm slot (ref v))
          param_slots;
        let this_v =
          match lex_this with
          | Some lexical -> lexical
          | None -> (
              match this with
              | Undefined | Null ->
                  if strict_f then
                    if chk_this ctx then Obj ctx.global else Undefined
                  else Obj ctx.global
              | v -> v)
        in
        set_slot frm this_slot (ref this_v);
        let saved_this = ctx.cur_this in
        ctx.cur_this <- this_v;
        Interp.cov_func ctx node_id;
        (match arguments_slot with
        | Some aslot ->
            let argobj = Ops.make_array ctx args in
            argobj.oclass <- "Arguments";
            set_slot frm aslot (ref (Obj argobj))
        | None -> ());
        List.iter (fun slot -> set_slot frm slot (ref Undefined)) var_slots;
        List.iter
          (fun (slot, mk) -> set_slot frm slot (ref (mk ctx frm)))
          fcreates;
        ctx.depth <- ctx.depth + 1;
        try
          let r =
            try
              List.iter (fun sc -> sc ctx frm) body_code;
              Undefined
            with Interp.Return_exc v -> v
          in
          ctx.depth <- ctx.depth - 1;
          ctx.cur_this <- saved_this;
          r
        with e ->
          ctx.depth <- ctx.depth - 1;
          ctx.cur_this <- saved_this;
          raise e
      in
      o.call <- Some (Compiled { co_name = fname; co_params = params; co_call });
      set_own o "length"
        (mkprop ~writable:false ~enumerable:false ~configurable:true
           (Num (Float.of_int nparams)));
      set_own o "name"
        (mkprop ~writable:false ~enumerable:false ~configurable:true (Str fname));
      if not is_arrow then begin
        let pr = make_obj ~oclass:"Object" ~proto:(proto_of ctx "Object") () in
        set_own pr "constructor" (mkprop ~enumerable:false (Obj o));
        set_own o "prototype" (mkprop ~enumerable:false (Obj pr))
      end;
      let v = Obj o in
      (match binding with Some r -> r := v | None -> ());
      v
  end

(* --- program entry --- *)

type t = {
  cp_run : Value.ctx -> Value.value;
      (** execute; returns the completion value like [Interp.exec_in_scope] *)
  cp_slotted : bool;  (** false: the whole program deopted to the tree *)
  cp_deopt_fns : int; (** function definition sites that deopted *)
  cp_folded : int;
      (** compiled deviation checkpoints folded away as statically
          unreachable (0 when compiled without a reach set) *)
  cp_shadows_specials : bool;
}

(* The deviation checkpoints compiled inline (everything else funnels
   through [Interp]/[Ops]/builtin code shared with the tree-walker, where
   the consultations stay as written). Only these are fold candidates, and
   only these are what a specialisation cell can bake in. *)
let compiled_checkpoint_list =
  [
    Quirk.Q_named_funcexpr_binding_mutable;
    Quirk.Q_codegen_neg_zero_positive;
    Quirk.Q_opt_loop_strconcat_drops;
    Quirk.Q_bool_prop_appends_to_array;
    Quirk.Q_strict_this_is_global;
  ]

let compiled_checkpoints = Quirk.Set.of_list compiled_checkpoint_list

(* Projection of a quirk set onto the inline-compiled checkpoints, packed
   into an int. Two specialisation cells with equal keys compile to
   observably identical closures (the inline sites are the only thing a
   cell specialises), so callers cache one compilation per key — one or
   two per case in practice, not one per equivalence cell. *)
let cell_key (c : Quirk.Set.t) : int =
  let rec go i acc = function
    | [] -> acc
    | q :: rest ->
        go (i + 1) (if Quirk.Set.mem q c then acc lor (1 lsl i) else acc) rest
  in
  go 0 0 compiled_checkpoint_list

(* Compile [prog] for one specialisation [cell] (see [gstate]); [reach],
   the front end's static reach set when the caller has one, licenses
   folding the inline sites outside it. *)
let compile ?reach ~(cell : Quirk.Set.t) (prog : Ast.program) : t =
  let folded =
    match reach with
    | None -> Quirk.Set.empty
    | Some s -> Quirk.Set.diff compiled_checkpoints s
  in
  let shadows = Interp.binds_specials prog in
  if R.program_deopts prog then
    {
      cp_run = (fun ctx -> Interp.exec_program ctx prog);
      cp_slotted = false;
      cp_deopt_fns = 0;
      cp_folded = 0;
      cp_shadows_specials = shadows;
    }
  else begin
    let strict = prog.Ast.prog_strict in
    Atomic.incr specialized;
    let gs = { gs_deopts = 0; gs_folded = folded; gs_cell = cell } in
    let plevel = R.new_level () in
    let vars, funcs = R.hoisted prog.Ast.prog_body in
    let var_slots =
      List.filter_map
        (fun n ->
          if R.find plevel n <> None then None
          else Some (R.declare plevel n ~fixed:true ~frozen:false))
        vars
    in
    let func_slots =
      List.map
        (fun ((_, fj) : int * Ast.func) ->
          let fname = Option.value fj.Ast.fname ~default:"" in
          R.declare plevel fname ~fixed:true ~frozen:false)
        funcs
    in
    List.iter
      (fun n -> ignore (R.declare plevel n ~fixed:false ~frozen:false))
      (R.lexical_names prog.Ast.prog_body);
    let env = [ plevel ] in
    let fcreates =
      List.map2
        (fun ((sid, fj) : int * Ast.func) slot ->
          (slot, compile_function gs env ~strict ~frz:[] ~node_id:sid fj))
        funcs func_slots
    in
    (* top-level statement list tracks the completion value of expression
       statements, as [Interp.exec_in_scope] does *)
    let body =
      List.map
        (fun (st : Ast.stmt) ->
          match st.Ast.s with
          | Ast.Expr_stmt x ->
              `Completion (st, compile_expr gs env ~strict ~frz:[] x)
          | _ -> `Stmt (compile_stmt gs env ~strict ~frz:[] st))
        prog.Ast.prog_body
    in
    let pnames = R.names plevel and pfrz = R.frozen_names plevel in
    let run ctx =
      ctx.slotted <- true;
      if shadows && not ctx.specials_shadowed then ctx.specials_shadowed <- true;
      let saved_this = ctx.cur_this in
      ctx.cur_this <-
        (match Hashtbl.find_opt ctx.global_scope.bindings "this" with
        | Some r -> !r
        | None -> Obj ctx.global);
      Fun.protect
        ~finally:(fun () -> ctx.cur_this <- saved_this)
        (fun () ->
          let pf = mk_frame pnames pfrz None in
          List.iter (fun slot -> set_slot pf slot (ref Undefined)) var_slots;
          List.iter
            (fun (slot, mk) -> set_slot pf slot (ref (mk ctx pf)))
            fcreates;
          let completion = ref Undefined in
          List.iter
            (fun item ->
              match item with
              | `Completion ((st : Ast.stmt), xc) ->
                  burn ctx 1;
                  Interp.cov_stmt ctx st;
                  completion := xc ctx pf
              | `Stmt sc -> sc ctx pf)
            body;
          !completion)
    in
    {
      cp_run = run;
      cp_slotted = true;
      cp_deopt_fns = gs.gs_deopts;
      cp_folded = Quirk.Set.cardinal folded;
      cp_shadows_specials = shadows;
    }
  end

let run (t : t) ctx = t.cp_run ctx
