(* Runtime value and object model of the reference engine.

   Everything the interpreter, the coercion layer and the builtins share is
   defined here, including the execution context [ctx], to avoid a module
   cycle: builtins need to call back into the evaluator (e.g. [sort] calling
   a JS comparator), which is wired through [ctx.call_hook] at start-up. *)

(* Hash table keyed by property name: the derived index of [obj.props]. *)
module Ptbl = Hashtbl.Make (String)

type value =
  | Undefined
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Obj of obj

and obj = {
  oid : int;
  mutable oclass : string;
      (** [[Class]]-like tag: "Object", "Array", "Function", "String",
          "Number", "Boolean", "RegExp", "Error", "JSON", "Math",
          "TypedArray", "DataView", "Arguments" *)
  mutable proto : value;
  mutable props : (string * prop) list;
      (** insertion-ordered named props: the single source of truth that
          enumeration, COW pre-images and [Realm.check_pristine] read *)
  mutable index : prop Ptbl.t option;
      (** derived from [props]: built by [find_own] on the first lookup
          that walks past [index_threshold] entries, kept in step by
          [set_own] and [remove_own], dropped by [cow_rollback] *)
  mutable extensible : bool;
  mutable call : callable option;
  mutable arr : arr option;              (** Array / TypedArray storage *)
  mutable prim : value option;           (** wrapped primitive *)
  mutable regex : regex_data option;
  mutable dataview : bytes option;
  mutable cow : int;
      (** copy-on-write state: 0 = ordinary object, 1 = realm-template
          object shared between executions (first mutation must journal a
          pre-image, see [cow_save]), 2 = template object already journaled
          by the execution in flight *)
}

and prop = {
  mutable v : value;
  mutable writable : bool;
  mutable enumerable : bool;
  mutable configurable : bool;
  mutable getter : value option; (** accessor support for defineProperty *)
}

and callable =
  | Js_closure of closure
  | Compiled of compiled
  | Native of string * int * (ctx -> value -> value list -> value)
      (** name, arity ([length] property), implementation *)

and compiled = {
  co_name : string;
  co_params : string list;
      (** kept for [Function.prototype.toString] and arity reporting *)
  co_call : ctx -> value -> value list -> value;
      (** pre-compiled body: this, args — produced by [Compile] *)
}

and closure = {
  cl_name : string;
  cl_params : string list;
  cl_body : Jsast.Ast.stmt list;
  cl_scope : scope;
  cl_this : value option;  (** [Some v] for arrows: lexically captured *)
  cl_strict : bool;
  cl_binding : value ref option;
      (** named function expressions bind their own name; kept so the
          [Q_named_funcexpr_binding_mutable] quirk can corrupt it *)
  cl_node_id : int;
      (** AST node id of the defining Func/Arrow/Func_decl, for function
          coverage (recorded when the body first executes) *)
}

and scope = {
  bindings : (string, value ref) Hashtbl.t;
  parent : scope option;
  mutable frozen_names : string list;
      (** immutable bindings (named function expressions); assignment is a
          silent no-op in sloppy mode, TypeError in strict — unless the
          [Q_named_funcexpr_binding_mutable] quirk is active *)
}

and typed_kind = U8 | U8C | I8 | U16 | I16 | U32 | I32 | F32 | F64

and arr = {
  mutable elems : value array;   (** dense storage; [Undefined] fills holes *)
  mutable alen : int;
  ty : typed_kind option;        (** [None] = ordinary Array *)
  mutable length_writable : bool;
  mutable elem_attrs : elem_attrs;
      (** attributes shared by every element of an ordinary array, set by
          [Object.seal] / [Object.freeze] *)
  mutable min_written : int;     (** lowest index ever stored; drives the
                                     Hermes relocation cost model *)
}

and elem_attrs =
  | Elems_open    (** writable, configurable *)
  | Elems_sealed  (** writable, non-configurable *)
  | Elems_frozen  (** non-writable, non-configurable *)

and regex_data = {
  rx_source : string;
  rx_flags : string;
  rx_prog : Regex.prog;
}

and ctx = {
  mutable global : obj;
  global_scope : scope;
  parse_opts : Jsparse.Parser.options;
  mutable fuel : int;            (** remaining execution budget *)
  fuel_cap : int;
  out : Buffer.t;
  q_lo : int;
  q_hi : int;
      (** the engine's quirk set, the two words of a [Quirk.Set.t] unpacked
          so the per-checkpoint membership test is one [land] *)
  mutable f_lo : int;
  mutable f_hi : int;
      (** quirks whose deviant path executed, as packed words *)
  mutable t_lo : int;
  mutable t_hi : int;
      (** quirk checkpoints *consulted* during execution, active or not —
          a superset of the fired words. Two engines whose quirk sets agree
          on a run's touched set replay the run identically, which is what
          the campaign's execution-sharing layer keys on. Mutable words
          rather than a [Quirk.Set.t] field: checkpoints sit on the
          interpreter's hot path, and a fresh pair per consultation would
          allocate *)
  mutable call_hook : ctx -> value -> value -> value list -> value;
      (** function value, this, args — set by [Interp] *)
  mutable eval_hook : ctx -> scope -> bool -> string -> value;
      (** scope, strict, source — set by [Interp] *)
  coverage : Coverage.t option;
  mutable loop_trip : int;       (** iterations of the innermost loop; feeds
                                     the optimizer-quirk cost model *)
  mutable strconcat_drop_armed : bool;
  mutable protos : (string * obj) list;
      (** intrinsic prototypes ("Object", "String", "Array", …) installed by
          [Builtins.install]; consulted for primitive member access *)
  mutable depth : int;  (** JS call depth, for the stack-size limit *)
  mutable cur_this : value;
      (** [this] of the innermost active function (or the global object):
          kept current by [call_function] / [exec_in_scope] so that [this]
          and arrow creation need no scope-chain walk *)
  mutable slotted : bool;
      (** a slot-compiled program is executing; [eval] must bail out to the
          tree-walker ([Deopt_to_tree]) because eval code can mutate the
          global binding map behind the compiled program's slots *)
  mutable specials_shadowed : bool;
      (** some executed program declares a binding named [undefined], [NaN]
          or [Infinity]; until then those identifiers evaluate to their
          constants without any scope-chain walk *)
  mutable reparsed : bool;
      (** the program parsed source at run time (global [eval]) — the one
          runtime use of [parse_opts]. A construct the options reject
          raises there without reaching a quirk checkpoint, so execution
          sharing must not lend this run across parse groups *)
}

(* [ctx.protos] by name: at most 16 entries, searched without
   polymorphic compare. *)
let rec find_proto name = function
  | [] -> None
  | (k, o) :: rest -> if String.equal k name then Some o else find_proto name rest

let proto_of ctx name =
  match find_proto name ctx.protos with
  | Some o -> Obj o
  | None -> Null

(* JS exceptions carry the thrown value. *)
exception Js_throw of value

(* Simulated engine crash (segfault analogue); aborts the test run. *)
exception Engine_crash of string

(* Execution budget exhausted; classified as a timeout by the harness. *)
exception Out_of_fuel

(* Raised (by the [eval] builtin) when a slot-compiled execution hits a
   dynamic feature the compiled representation cannot honour; [Run] catches
   it, discards the context, and re-executes the program tree-walked. *)
exception Deopt_to_tree

(* Process-wide object id source. *)
let obj_counter = ref 0

let make_obj ?(oclass = "Object") ?(proto = Null) () =
  {
    oid = (incr obj_counter; !obj_counter);
    oclass;
    proto;
    props = [];
    index = None;
    extensible = true;
    call = None;
    arr = None;
    prim = None;
    regex = None;
    dataview = None;
    cow = 0;
  }

let mkprop ?(writable = true) ?(enumerable = true) ?(configurable = true) v =
  { v; writable; enumerable; configurable; getter = None }

(* --- copy-on-write journal ---------------------------------------------

   The realm template (see [Realm]) is shared between every execution in
   the process instead of being deep-copied per run. Soundness: the first
   mutation of a template object journals a pre-image of all its mutable
   state (the lazy "clone" of the COW scheme — paid only for objects a
   program actually writes, which for typical generated programs is zero),
   and [cow_rollback] — run by [Run] after every execution — restores the
   pre-images so the next execution sees a pristine template.

   Executions in a process are sequential, so the journal only ever holds
   the in-flight execution's entries. *)

type cow_prop_save = {
  cps_prop : prop;
  cps_v : value;
  cps_writable : bool;
  cps_enumerable : bool;
  cps_configurable : bool;
  cps_getter : value option;
}

type cow_arr_save = {
  cas_arr : arr;
  cas_elems : value array; (* a copy *)
  cas_alen : int;
  cas_length_writable : bool;
  cas_elem_attrs : elem_attrs;
  cas_min_written : int;
}

type cow_save = {
  cs_obj : obj;
  cs_oclass : string;
  cs_proto : value;
  cs_props : (string * prop) list;
  cs_prop_saves : cow_prop_save list;
  cs_extensible : bool;
  cs_call : callable option;
  cs_arr : cow_arr_save option;
  cs_prim : value option;
  cs_regex : regex_data option;
  cs_dataview : bytes option; (* a copy *)
}

let cow_journal : cow_save list ref = ref []

(* Process-wide count of lazily journaled template objects ("COW clones");
   campaigns report the delta as [cp_cow_clones]. *)
let cow_clones = Cutil.Counter.make "jsinterp.cow_clones"

let cow_save (o : obj) : unit =
  o.cow <- 2;
  Cutil.Counter.incr cow_clones;
  cow_journal :=
    {
      cs_obj = o;
      cs_oclass = o.oclass;
      cs_proto = o.proto;
      cs_props = o.props;
      cs_prop_saves =
        List.map
          (fun (_, p) ->
            {
              cps_prop = p;
              cps_v = p.v;
              cps_writable = p.writable;
              cps_enumerable = p.enumerable;
              cps_configurable = p.configurable;
              cps_getter = p.getter;
            })
          o.props;
      cs_extensible = o.extensible;
      cs_call = o.call;
      cs_arr =
        Option.map
          (fun a ->
            {
              cas_arr = a;
              cas_elems = Array.copy a.elems;
              cas_alen = a.alen;
              cas_length_writable = a.length_writable;
              cas_elem_attrs = a.elem_attrs;
              cas_min_written = a.min_written;
            })
          o.arr;
      cs_prim = o.prim;
      cs_regex = o.regex;
      cs_dataview = Option.map Bytes.copy o.dataview;
    }
    :: !cow_journal

(* The write barrier. Every mutation point of the object model funnels
   through here (or through [set_own]/[remove_own], which do) before
   touching a field. Ordinary objects pay one integer compare. *)
let barrier (o : obj) : unit = if o.cow = 1 then cow_save o

let cow_rollback () : unit =
  match !cow_journal with
  | [] -> ()
  | entries ->
      List.iter
        (fun s ->
          let o = s.cs_obj in
          o.oclass <- s.cs_oclass;
          o.proto <- s.cs_proto;
          List.iter
            (fun ps ->
              let p = ps.cps_prop in
              p.v <- ps.cps_v;
              p.writable <- ps.cps_writable;
              p.enumerable <- ps.cps_enumerable;
              p.configurable <- ps.cps_configurable;
              p.getter <- ps.cps_getter)
            s.cs_prop_saves;
          o.props <- s.cs_props;
          o.index <- None;
          o.extensible <- s.cs_extensible;
          o.call <- s.cs_call;
          (match s.cs_arr with
          | Some a ->
              a.cas_arr.elems <- a.cas_elems;
              a.cas_arr.alen <- a.cas_alen;
              a.cas_arr.length_writable <- a.cas_length_writable;
              a.cas_arr.elem_attrs <- a.cas_elem_attrs;
              a.cas_arr.min_written <- a.cas_min_written;
              o.arr <- Some a.cas_arr
          | None -> o.arr <- None);
          o.prim <- s.cs_prim;
          o.regex <- s.cs_regex;
          o.dataview <- s.cs_dataview;
          o.cow <- 1)
        entries;
      cow_journal := []

let type_of = function
  | Undefined -> "undefined"
  | Null -> "object"
  | Bool _ -> "boolean"
  | Num _ -> "number"
  | Str _ -> "string"
  | Obj o -> if o.call <> None then "function" else "object"

let is_callable = function Obj { call = Some _; _ } -> true | _ -> false

(* Every conformance-relevant decision point funnels through here (directly
   or via [fire]); recording the consultation — whether or not the quirk is
   active — is what makes the touched set a sound execution-sharing key.
   [Quirk.index] is a constant-constructor match, so the whole consultation
   is a handful of integer instructions and allocates nothing. *)
let quirk_on ctx q =
  let i = Quirk.index q in
  if i < 62 then begin
    let m = 1 lsl i in
    ctx.t_lo <- ctx.t_lo lor m;
    ctx.q_lo land m <> 0
  end
  else begin
    let m = 1 lsl (i - 62) in
    ctx.t_hi <- ctx.t_hi lor m;
    ctx.q_hi land m <> 0
  end

(* Check-and-record: returns whether the quirk is active, and if so marks it
   as fired. All deviation points in the interpreter and builtins go through
   this so that campaign scoring can attribute observed deviations to
   ground-truth bugs. *)
let fire ctx q =
  let i = Quirk.index q in
  if i < 62 then begin
    let m = 1 lsl i in
    ctx.t_lo <- ctx.t_lo lor m;
    if ctx.q_lo land m <> 0 then begin
      ctx.f_lo <- ctx.f_lo lor m;
      true
    end
    else false
  end
  else begin
    let m = 1 lsl (i - 62) in
    ctx.t_hi <- ctx.t_hi lor m;
    if ctx.q_hi land m <> 0 then begin
      ctx.f_hi <- ctx.f_hi lor m;
      true
    end
    else false
  end

(* A context's recording fields as quirk sets. *)
let fired_bits ctx : Quirk.Set.t = (ctx.f_lo, ctx.f_hi)
let touched_bits ctx : Quirk.Set.t = (ctx.t_lo, ctx.t_hi)

let burn ctx n =
  ctx.fuel <- ctx.fuel - n;
  if ctx.fuel < 0 then raise Out_of_fuel

(* --- property list helpers (insertion-ordered assoc) ---

   [props] is the truth; [index] is a cache of it for objects with many
   properties (the global object, [Array.prototype], [String.prototype],
   [Math]), so a builtin read costs one hash probe rather than a walk of
   up to 36 entries. The three writers of [props] — [set_own],
   [remove_own] and [cow_rollback] — keep the index in step or drop it. *)

let index_threshold = 8

let build_index (o : obj) : prop Ptbl.t =
  let t = Ptbl.create 32 in
  List.iter (fun (k, p) -> Ptbl.replace t k p) o.props;
  o.index <- Some t;
  t

(* the list walk of an unindexed object; [n] counts the entries seen *)
let rec find_walk (o : obj) (k : string) n = function
  | [] -> None
  | (k', p) :: rest ->
      if String.equal k k' then Some p
      else if n = index_threshold then Ptbl.find_opt (build_index o) k
      else find_walk o k (n + 1) rest

let find_own (o : obj) (k : string) : prop option =
  match o.index with
  | Some t -> Ptbl.find_opt t k
  | None -> find_walk o k 1 o.props

let set_own (o : obj) (k : string) (p : prop) =
  barrier o;
  let[@tail_mod_cons] rec put = function
    | [] -> [ (k, p) ]
    | ((k', _) as kv) :: rest ->
        if String.equal k k' then (k, p) :: rest else kv :: put rest
  in
  o.props <- put o.props;
  match o.index with Some t -> Ptbl.replace t k p | None -> ()

let remove_own (o : obj) (k : string) =
  barrier o;
  o.props <- List.filter (fun (k', _) -> not (String.equal k' k)) o.props;
  match o.index with Some t -> Ptbl.remove t k | None -> ()

let own_keys (o : obj) : string list = List.map fst o.props

(* Canonical array-index interpretation of a property key. A canonical
   index starts with a digit; checking that first keeps named keys
   ("length", "push", …) out of [int_of_string_opt], which raises and
   catches internally on every non-numeral. *)
let array_index_of_key (k : string) : int option =
  if k = "" || k.[0] < '0' || k.[0] > '9' then None
  else
    match int_of_string_opt k with
    | Some i when i >= 0 && string_of_int i = k -> Some i
    | _ -> None

let typed_kind_name = function
  | U8 -> "Uint8Array"
  | U8C -> "Uint8ClampedArray"
  | I8 -> "Int8Array"
  | U16 -> "Uint16Array"
  | I16 -> "Int16Array"
  | U32 -> "Uint32Array"
  | I32 -> "Int32Array"
  | F32 -> "Float32Array"
  | F64 -> "Float64Array"
