(* Generic traversals and static queries over programs.

   These are the analyses shared by the test-data generator (call-site
   extraction, def-use association of Algorithm 1, line 8), the coverage
   instrumentation (enumerating coverable locations) and the reducer. *)

open Ast

(* Apply [fe] to every expression and [fs] to every statement, top-down,
   including inside the bodies of the nested functions [into] accepts
   (all of them by default). *)
let rec iter_expr ?(fs = ignore) ?(into = fun _ -> true) ~fe (x : expr) =
  let iter_expr = iter_expr ~fs ~into in
  fe x;
  match x.e with
  | Lit _ | Ident _ | This -> ()
  | Array_lit elems -> List.iter (Option.iter (iter_expr ~fe)) elems
  | Object_lit props ->
      List.iter
        (fun (pn, v) ->
          (match pn with PN_computed e -> iter_expr ~fe e | _ -> ());
          iter_expr ~fe v)
        props
  | Func f | Arrow f -> if into f then List.iter (iter_stmt ~fe ~fs ~into) f.body
  | Unary (_, a) | Update (_, _, a) -> iter_expr ~fe a
  | Binary (_, a, b) | Logical (_, a, b) | Assign (_, a, b) | Seq (a, b) ->
      iter_expr ~fe a;
      iter_expr ~fe b
  | Cond (a, b, c) ->
      iter_expr ~fe a;
      iter_expr ~fe b;
      iter_expr ~fe c
  | Call (f, args) | New (f, args) ->
      iter_expr ~fe f;
      List.iter (iter_expr ~fe) args
  | Member (o, Pfield _) -> iter_expr ~fe o
  | Member (o, Pindex i) ->
      iter_expr ~fe o;
      iter_expr ~fe i
  | Template parts ->
      List.iter (function Tstr _ -> () | Tsub e -> iter_expr ~fe e) parts

and iter_stmt ~fe ~fs ~into (st : stmt) =
  fs st;
  let expr = iter_expr ~fs ~into ~fe in
  let stmt = iter_stmt ~fe ~fs ~into in
  match st.s with
  | Expr_stmt x -> expr x
  | Var_decl (_, decls) -> List.iter (fun (_, i) -> Option.iter expr i) decls
  | Func_decl f -> if into f then List.iter stmt f.body
  | Return x -> Option.iter expr x
  | If (c, t, f) ->
      expr c;
      stmt t;
      Option.iter stmt f
  | Block body -> List.iter stmt body
  | For (init, c, upd, body) ->
      (match init with
      | Some (FI_decl (_, decls)) ->
          List.iter (fun (_, i) -> Option.iter expr i) decls
      | Some (FI_expr x) -> expr x
      | None -> ());
      Option.iter expr c;
      Option.iter expr upd;
      stmt body
  | For_in (_, _, o, body) | For_of (_, _, o, body) ->
      expr o;
      stmt body
  | While (c, body) ->
      expr c;
      stmt body
  | Do_while (body, c) ->
      stmt body;
      expr c
  | Break _ | Continue _ | Empty | Debugger -> ()
  | Throw x -> expr x
  | Try (b, h, f) ->
      List.iter stmt b;
      Option.iter (fun (_, hb) -> List.iter stmt hb) h;
      Option.iter (List.iter stmt) f
  | Switch (d, cases) ->
      expr d;
      List.iter
        (fun (c, body) ->
          Option.iter expr c;
          List.iter stmt body)
        cases
  | Labeled (_, st) -> stmt st

let iter_program ?(fe = ignore) ?(fs = ignore) (p : program) =
  List.iter (iter_stmt ~fe ~fs ~into:(fun _ -> true)) p.prog_body

(* Does a call of a function with this [body] read the [this] it was
   called with: a [This] in the body, or in an arrow nested in it (arrows
   capture the [this] of their creation)? A nested non-arrow function
   binds its own. *)
let reads_this (body : stmt list) : bool =
  let exception Found in
  match
    List.iter
      (iter_stmt ~fs:ignore
         ~into:(fun g -> g.is_arrow)
         ~fe:(fun x -> match x.e with This -> raise Found | _ -> ()))
      body
  with
  | () -> false
  | exception Found -> true

(* The [var]/function-declaration hoisting traversal of one function (or
   program) body: visits every statement var-scoped to it, stopping at
   nested function boundaries. This single definition backs both the
   interpreter's environment set-up ([Jsinterp.Interp]) and the scope
   resolver ([Analysis.Scope]) — the binding structure the static analyses
   reason about is by construction the one the engine executes.
   [on_var] receives each hoisted [var] name; [on_func] receives each
   function declaration as [(sid, func)]. *)
let rec hoist_stmt ~on_var ~on_func (st : stmt) =
  let hoist = hoist_stmt ~on_var ~on_func in
  match st.s with
  | Var_decl (Var, decls) -> List.iter (fun (n, _) -> on_var n) decls
  | Var_decl ((Let | Const), _) -> ()
  | Func_decl f -> on_func (st.sid, f)
  | If (_, t, f) ->
      hoist t;
      Option.iter hoist f
  | Block body -> List.iter hoist body
  | For (init, _, _, body) ->
      (match init with
      | Some (FI_decl (Var, decls)) -> List.iter (fun (n, _) -> on_var n) decls
      | _ -> ());
      hoist body
  | For_in (k, n, _, body) | For_of (k, n, _, body) ->
      if k = Some Var then on_var n;
      hoist body
  | While (_, body) | Do_while (body, _) | Labeled (_, body) -> hoist body
  | Try (b, h, f) ->
      List.iter hoist b;
      Option.iter (fun (_, hb) -> List.iter hoist hb) h;
      Option.iter (List.iter hoist) f
  | Switch (_, cases) -> List.iter (fun (_, body) -> List.iter hoist body) cases
  | Expr_stmt _ | Return _ | Break _ | Continue _ | Throw _ | Empty | Debugger
    ->
      ()

(* A call site interesting to the test-data generator: the callee "API name"
   in the ECMA-262 database key style. [x.substr(a)] yields ["substr"] with
   [receiver = Some "x"], [new Uint32Array(n)] yields ["Uint32Array"],
   [parseInt(s)] yields ["parseInt"]. *)
type call_site = {
  cs_callee : string;          (** last path component, e.g. ["substr"] *)
  cs_path : string list;       (** full dotted path, e.g. [\["Object"; "defineProperty"\]] *)
  cs_receiver : string option; (** receiver identifier for method calls *)
  cs_args : expr list;
  cs_is_new : bool;
  cs_expr_id : int;
}

let rec callee_path (x : expr) : string list option =
  match x.e with
  | Ident n -> Some [ n ]
  | Member (o, Pfield n) ->
      Option.map (fun p -> p @ [ n ]) (callee_path o)
  | _ -> None

let call_sites (p : program) : call_site list =
  let acc = ref [] in
  iter_program
    ~fe:(fun x ->
      match x.e with
      | Call (f, args) | New (f, args) -> (
          let is_new = match x.e with New _ -> true | _ -> false in
          match callee_path f with
          | Some path when path <> [] ->
              let receiver =
                match (f.e, path) with
                | Member ({ e = Ident r; _ }, _), _ -> Some r
                | _ -> None
              in
              acc :=
                {
                  cs_callee = List.nth path (List.length path - 1);
                  cs_path = path;
                  cs_receiver = receiver;
                  cs_args = args;
                  cs_is_new = is_new;
                  cs_expr_id = x.eid;
                }
                :: !acc
          | _ -> ())
      | _ -> ())
    p;
  List.rev !acc

(* Names of all declared variables and functions; used for def-use
   association when mutating argument values. *)
let declared_names (p : program) : string list =
  let acc = ref [] in
  iter_program
    ~fs:(fun st ->
      match st.s with
      | Var_decl (_, decls) ->
          List.iter (fun (n, _) -> acc := n :: !acc) decls
      | Func_decl { fname = Some n; _ } -> acc := n :: !acc
      | For (Some (FI_decl (_, decls)), _, _, _) ->
          List.iter (fun (n, _) -> acc := n :: !acc) decls
      | For_in (Some _, n, _, _) | For_of (Some _, n, _, _) ->
          acc := n :: !acc
      | _ -> ())
    p;
  List.rev !acc

(* Global names every engine realm provides; not "free" when referenced.
   Free-variable discovery itself lives in [Analysis.Scope], which resolves
   the scope tree precisely (hoisting, block scoping, TDZ). *)
let builtin_globals : string list =
  [
    "print"; "undefined"; "NaN"; "Infinity"; "globalThis"; "this"; "arguments";
    "Math"; "JSON"; "Object"; "Function"; "String"; "Number"; "Boolean";
    "Array"; "RegExp"; "Date"; "Error"; "TypeError"; "RangeError";
    "SyntaxError"; "ReferenceError"; "EvalError"; "parseInt"; "parseFloat";
    "isNaN"; "isFinite"; "eval"; "Uint8Array"; "Uint8ClampedArray";
    "Int8Array"; "Uint16Array"; "Int16Array"; "Uint32Array"; "Int32Array";
    "Float32Array"; "Float64Array"; "DataView";
  ]
