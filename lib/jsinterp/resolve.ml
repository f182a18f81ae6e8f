(* Static binding resolution for the closure compiler ([Compile]).

   The tree-walker resolves every identifier by walking a chain of
   [Hashtbl]-backed scopes ([Value.scope]). This pass assigns each binding a
   static (depth, slot) coordinate instead, mirroring the interpreter's
   *runtime* scoping discipline exactly — which is not spec scoping:

   - [var] and function declarations hoist to the enclosing function (or
     program) scope and exist from frame construction ("fixed" slots);
   - [let]/[const] bindings only exist once their declaration statement has
     executed (the tree-walker has no temporal dead zone: a reference before
     the declaration resolves to an *outer* binding), so lexical slots are
     "conditional": they hold an absent sentinel until declared, and every
     reference compiles to a chain of candidate slots that falls through
     absent ones;
   - non-scope-creating statements (if arms, while/do-while bodies, labels)
     pass the current scope through, so a [let] nested in an unbraced [if]
     arm binds in the *enclosing* block — [lexical_names] reproduces that
     reachability rule.

   The pass leans on [Interp.hoist_stmt] for var/function hoisting
   (shared with the tree-walker, so hoisting parity is by construction);
   whether a program may reach [eval], and must therefore stay on the
   tree-walking path, is a syntactic scan ([mentions_eval]). *)

module Ast = Jsast.Ast

(* --- levels: compile-time images of runtime frames --- *)

type entry = {
  en_slot : int;
  mutable en_fixed : bool;
      (** installed at frame construction, never absent at runtime *)
  mutable en_frozen : bool;  (** named-funcexpr self binding *)
}

type level = {
  lv_tbl : (string, entry) Hashtbl.t;
  mutable lv_rev_names : string list;
  mutable lv_count : int;
}

let new_level () : level =
  { lv_tbl = Hashtbl.create 8; lv_rev_names = []; lv_count = 0 }

(* Declare [name] in [lv]; redeclaration merges into the existing slot (the
   runtime analogue: one Hashtbl key per name per scope). A name fixed by
   any declaration stays fixed. *)
let declare (lv : level) (name : string) ~(fixed : bool) ~(frozen : bool) : int
    =
  match Hashtbl.find_opt lv.lv_tbl name with
  | Some e ->
      e.en_fixed <- e.en_fixed || fixed;
      e.en_frozen <- e.en_frozen || frozen;
      e.en_slot
  | None ->
      let slot = lv.lv_count in
      lv.lv_count <- slot + 1;
      Hashtbl.replace lv.lv_tbl name
        { en_slot = slot; en_fixed = fixed; en_frozen = frozen };
      lv.lv_rev_names <- name :: lv.lv_rev_names;
      slot

let size (lv : level) : int = lv.lv_count
let names (lv : level) : string array = Array.of_list (List.rev lv.lv_rev_names)

let frozen_names (lv : level) : string list =
  Hashtbl.fold (fun n e acc -> if e.en_frozen then n :: acc else acc) lv.lv_tbl []

let find (lv : level) (name : string) : entry option =
  Hashtbl.find_opt lv.lv_tbl name

let slot_of (lv : level) (name : string) : int option =
  Option.map (fun e -> e.en_slot) (find lv name)

(* --- access resolution over a static environment --- *)

type target = { tg_depth : int; tg_slot : int; tg_frozen : bool }

type access = {
  ac_candidates : (int * int) list;
      (** conditional (lexical) slots, innermost first: checked in order,
          falling through slots still holding the absent sentinel *)
  ac_terminal : target option;
      (** first fixed slot on the chain — the walk can never pass it *)
}

let resolve_access (env : level list) (name : string) : access =
  let rec go depth levels acc =
    match levels with
    | [] -> { ac_candidates = List.rev acc; ac_terminal = None }
    | lv :: rest -> (
        match find lv name with
        | Some e when e.en_fixed ->
            {
              ac_candidates = List.rev acc;
              ac_terminal =
                Some
                  { tg_depth = depth; tg_slot = e.en_slot; tg_frozen = e.en_frozen };
            }
        | Some e -> go (depth + 1) rest ((depth, e.en_slot) :: acc)
        | None -> go (depth + 1) rest acc)
  in
  go 0 env []

(* --- which [let]/[const] names land in the scope a statement list runs in —
   the runtime reachability rule of [Interp.exec_stmt] --- *)

let lexical_names (stmts : Ast.stmt list) : string list =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let add n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      out := n :: !out
    end
  in
  let rec walk (st : Ast.stmt) =
    match st.Ast.s with
    | Ast.Var_decl ((Ast.Let | Ast.Const), decls) ->
        List.iter (fun (n, _) -> add n) decls
    | Ast.If (_, t, f) ->
        walk t;
        Option.iter walk f
    | Ast.While (_, b) | Ast.Do_while (b, _) | Ast.Labeled (_, b) -> walk b
    | _ -> ()
    (* Block / For / For_in / For_of / Try / Switch open their own scopes;
       Func_decl bodies are separate functions *)
  in
  List.iter walk stmts;
  List.rev !out

(* --- hoisting (via the tree-walker's own traversal) --- *)

(* First-occurrence-ordered hoisted [var] names and source-ordered function
   declarations of a function (or program) body. *)
let hoisted (body : Ast.stmt list) : string list * (int * Ast.func) list =
  let seen = Hashtbl.create 8 in
  let vars = ref [] in
  let funcs = ref [] in
  List.iter
    (Interp.hoist_stmt
       ~on_var:(fun n ->
         if not (Hashtbl.mem seen n) then begin
           Hashtbl.add seen n ();
           vars := n :: !vars
         end)
       ~on_func:(fun sf -> funcs := sf :: !funcs))
    body;
  (List.rev !vars, List.rev !funcs)

(* --- deopt triggers --- *)

(* Does [stmts] — excluding nested function bodies — contain a construct the
   compiled representation does not handle natively?

   - [delete ident]: needs the live-scope-chain probe semantics;
   - assignment/update targeting a name that matches an enclosing named
     function expression's self binding: must reach the [frozen_names]
     checkpoint ([Q_named_funcexpr_binding_mutable]) through a real scope.

   Both are handled by deopting the *enclosing function* to the tree-walker
   (its closure then carries a bridged Hashtbl scope chain); nested
   functions are scanned when they themselves are compiled. The check is
   purely syntactic (shadowing is ignored), which over-deopts but never
   under-deopts. *)
let stmts_deopt ~(frozen : string list) (stmts : Ast.stmt list) : bool =
  let exception Hit in
  let check_write (lhs : Ast.expr) =
    match lhs.Ast.e with
    | Ast.Ident n when List.mem n frozen -> raise Hit
    | _ -> ()
  in
  let rec expr (x : Ast.expr) =
    match x.Ast.e with
    | Ast.Lit _ | Ast.Ident _ | Ast.This -> ()
    | Ast.Array_lit elems -> List.iter (Option.iter expr) elems
    | Ast.Object_lit props ->
        List.iter
          (fun (pn, v) ->
            (match pn with Ast.PN_computed e -> expr e | _ -> ());
            expr v)
          props
    | Ast.Func _ | Ast.Arrow _ -> () (* scanned when compiled themselves *)
    | Ast.Unary (Ast.Udelete, { Ast.e = Ast.Ident _; _ }) -> raise Hit
    | Ast.Unary (_, e) -> expr e
    | Ast.Binary (_, a, b) | Ast.Logical (_, a, b) | Ast.Seq (a, b) ->
        expr a;
        expr b
    | Ast.Assign (_, l, r) ->
        check_write l;
        expr l;
        expr r
    | Ast.Update (_, _, t) ->
        check_write t;
        expr t
    | Ast.Cond (c, t, f) ->
        expr c;
        expr t;
        expr f
    | Ast.Call (f, args) | Ast.New (f, args) ->
        expr f;
        List.iter expr args
    | Ast.Member (o, p) -> (
        expr o;
        match p with Ast.Pindex e -> expr e | Ast.Pfield _ -> ())
    | Ast.Template parts ->
        List.iter (function Ast.Tsub e -> expr e | Ast.Tstr _ -> ()) parts
  and stmt (st : Ast.stmt) =
    match st.Ast.s with
    | Ast.Expr_stmt x | Ast.Throw x -> expr x
    | Ast.Var_decl (_, decls) ->
        List.iter (fun (_, i) -> Option.iter expr i) decls
    | Ast.Func_decl _ -> ()
    | Ast.Return x -> Option.iter expr x
    | Ast.If (c, t, f) ->
        expr c;
        stmt t;
        Option.iter stmt f
    | Ast.Block body -> List.iter stmt body
    | Ast.For (init, c, u, body) ->
        (match init with
        | Some (Ast.FI_decl (_, decls)) ->
            List.iter (fun (_, i) -> Option.iter expr i) decls
        | Some (Ast.FI_expr x) -> expr x
        | None -> ());
        Option.iter expr c;
        Option.iter expr u;
        stmt body
    | Ast.For_in (_, n, o, body) | Ast.For_of (_, n, o, body) ->
        if List.mem n frozen then raise Hit;
        expr o;
        stmt body
    | Ast.While (c, body) ->
        expr c;
        stmt body
    | Ast.Do_while (body, c) ->
        stmt body;
        expr c
    | Ast.Labeled (_, body) -> stmt body
    | Ast.Try (b, h, f) ->
        List.iter stmt b;
        Option.iter (fun (_, hb) -> List.iter stmt hb) h;
        Option.iter (List.iter stmt) f
    | Ast.Switch (d, cases) ->
        expr d;
        List.iter
          (fun (c, b) ->
            Option.iter expr c;
            List.iter stmt b)
          cases
    | Ast.Break _ | Ast.Continue _ | Ast.Empty | Ast.Debugger -> ()
  in
  match List.iter stmt stmts with () -> false | exception Hit -> true

let func_deopts ~(frozen : string list) (f : Ast.func) : bool =
  let frozen =
    match f.Ast.fname with
    | Some n when not f.Ast.is_arrow -> n :: frozen
    | _ -> frozen
  in
  stmts_deopt ~frozen f.Ast.body

(* --- program-level deopt: can this program reach [eval]? ---

   eval code executes in the global scope and may add or replace bindings
   there (hoisting replaces even existing function bindings with fresh
   refs), which would invalidate the compiled program's static resolution
   of its own top-level names. Any program that may call eval is therefore
   executed by the tree-walker from the start. The static test is
   syntactic and conservative the cheap way round: any [eval] identifier
   reference, free or locally bound (a local [eval] may hold the builtin),
   or a [.eval] / [\["eval"\]] member access. It needs no scope
   analysis, so a compile costs one walk of the tree. Anything sneakier (a
   computed key assembled at runtime) escapes the scan and is caught by
   the dynamic trap in the eval builtin, which re-runs the whole program
   tree-walked. *)

let mentions_eval (prog : Ast.program) : bool =
  let exception Hit in
  let rec expr (x : Ast.expr) =
    match x.Ast.e with
    | Ast.Ident "eval" -> raise Hit
    | Ast.Lit _ | Ast.Ident _ | Ast.This -> ()
    | Ast.Array_lit elems -> List.iter (Option.iter expr) elems
    | Ast.Object_lit props ->
        List.iter
          (fun (pn, v) ->
            (match pn with Ast.PN_computed e -> expr e | _ -> ());
            expr v)
          props
    | Ast.Func f | Ast.Arrow f -> List.iter stmt f.Ast.body
    | Ast.Unary (_, e) -> expr e
    | Ast.Binary (_, a, b) | Ast.Logical (_, a, b) | Ast.Seq (a, b) ->
        expr a;
        expr b
    | Ast.Assign (_, l, r) ->
        expr l;
        expr r
    | Ast.Update (_, _, t) -> expr t
    | Ast.Cond (c, t, f) ->
        expr c;
        expr t;
        expr f
    | Ast.Call (f, args) | Ast.New (f, args) ->
        expr f;
        List.iter expr args
    | Ast.Member (o, p) -> (
        expr o;
        match p with
        | Ast.Pfield "eval" -> raise Hit
        | Ast.Pindex { Ast.e = Ast.Lit (Ast.Lstr "eval"); _ } -> raise Hit
        | Ast.Pindex e -> expr e
        | Ast.Pfield _ -> ())
    | Ast.Template parts ->
        List.iter (function Ast.Tsub e -> expr e | Ast.Tstr _ -> ()) parts
  and stmt (st : Ast.stmt) =
    match st.Ast.s with
    | Ast.Expr_stmt x | Ast.Throw x -> expr x
    | Ast.Var_decl (_, decls) ->
        List.iter (fun (_, i) -> Option.iter expr i) decls
    | Ast.Func_decl f -> List.iter stmt f.Ast.body
    | Ast.Return x -> Option.iter expr x
    | Ast.If (c, t, f) ->
        expr c;
        stmt t;
        Option.iter stmt f
    | Ast.Block body -> List.iter stmt body
    | Ast.For (init, c, u, body) ->
        (match init with
        | Some (Ast.FI_decl (_, decls)) ->
            List.iter (fun (_, i) -> Option.iter expr i) decls
        | Some (Ast.FI_expr x) -> expr x
        | None -> ());
        Option.iter expr c;
        Option.iter expr u;
        stmt body
    | Ast.For_in (_, _, o, body) | Ast.For_of (_, _, o, body) ->
        expr o;
        stmt body
    | Ast.While (c, body) ->
        expr c;
        stmt body
    | Ast.Do_while (body, c) ->
        stmt body;
        expr c
    | Ast.Labeled (_, body) -> stmt body
    | Ast.Try (b, h, f) ->
        List.iter stmt b;
        Option.iter (fun (_, hb) -> List.iter stmt hb) h;
        Option.iter (List.iter stmt) f
    | Ast.Switch (d, cases) ->
        expr d;
        List.iter
          (fun (c, b) ->
            Option.iter expr c;
            List.iter stmt b)
          cases
    | Ast.Break _ | Ast.Continue _ | Ast.Empty | Ast.Debugger -> ()
  in
  match List.iter stmt prog.Ast.prog_body with
  | () -> false
  | exception Hit -> true

(* Top-level code is the program "function"; a [delete ident] there (outside
   any nested function) deopts the whole program, exactly as it deopts a
   function. *)
let program_deopts (prog : Ast.program) : bool =
  mentions_eval prog || stmts_deopt ~frozen:[] prog.Ast.prog_body
