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
   (shared with the tree-walker, so hoisting parity is by construction).
   Whether a program must stay on the tree-walking path is one syntactic
   scan of the whole program ([program_deopts]): a program is either
   compiled whole or tree-walked whole. *)

module Ast = Jsast.Ast

(* --- levels: compile-time images of runtime frames --- *)

type entry = {
  en_slot : int;
  mutable en_fixed : bool;
      (** installed at frame construction, never absent at runtime *)
}

type level = { lv_tbl : (string, entry) Hashtbl.t; mutable lv_count : int }

let new_level () : level = { lv_tbl = Hashtbl.create 8; lv_count = 0 }

(* Declare [name] in [lv]; redeclaration merges into the existing slot (the
   runtime analogue: one Hashtbl key per name per scope). A name fixed by
   any declaration stays fixed. *)
let declare (lv : level) (name : string) ~(fixed : bool) : int =
  match Hashtbl.find_opt lv.lv_tbl name with
  | Some e ->
      e.en_fixed <- e.en_fixed || fixed;
      e.en_slot
  | None ->
      let slot = lv.lv_count in
      lv.lv_count <- slot + 1;
      Hashtbl.replace lv.lv_tbl name { en_slot = slot; en_fixed = fixed };
      slot

let size (lv : level) : int = lv.lv_count

let find (lv : level) (name : string) : entry option =
  Hashtbl.find_opt lv.lv_tbl name

let slot_of (lv : level) (name : string) : int option =
  Option.map (fun e -> e.en_slot) (find lv name)

(* --- access resolution over a static environment --- *)

type target = { tg_depth : int; tg_slot : int }

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
              ac_terminal = Some { tg_depth = depth; tg_slot = e.en_slot };
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

(* Declare the [lexical_names] of [stmts] in [lv], each conditional. *)
let declare_lexicals (lv : level) (stmts : Ast.stmt list) : unit =
  List.iter (fun n -> ignore (declare lv n ~fixed:false)) (lexical_names stmts)

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

(* --- the static deopt boundary: is this program tree-walked whole? ---

   One syntactic scan of the whole program, nested function bodies
   included. The program deopts if it has any of:

   - an [eval] identifier, free or locally bound (a local [eval] may hold
     the builtin), or a [.eval] / [\["eval"\]] member access: eval code
     runs in the global scope and may add or replace bindings there,
     which would invalidate the static resolution of the program's own
     names;
   - a [delete ident]: its result needs the live scope chain;
   - an assignment, update or for-in/for-of binder targeting a name that
     some named non-arrow function in the program carries: the write may
     reach that function's immutable self binding, whose
     [Q_named_funcexpr_binding_mutable] checkpoint lives in
     [Interp.assign_ident].

   The scan ignores shadowing and where the writes sit, so it over-deopts
   but never under-deopts; a tree-walked program costs speed, never
   behaviour. Anything sneakier (an eval key assembled at runtime)
   escapes it and is caught by the dynamic trap in the eval builtin,
   which re-runs the whole program tree-walked. *)
let program_deopts (prog : Ast.program) : bool =
  let exception Hit in
  let carried = Hashtbl.create 8 and written = Hashtbl.create 8 in
  let carry (f : Ast.func) =
    match f.Ast.fname with
    | Some n when not f.Ast.is_arrow -> Hashtbl.replace carried n ()
    | _ -> ()
  in
  let fe (x : Ast.expr) =
    match x.Ast.e with
    | Ast.Ident "eval"
    | Ast.Member
        (_, (Ast.Pfield "eval" | Ast.Pindex { Ast.e = Ast.Lit (Ast.Lstr "eval"); _ }))
    | Ast.Unary (Ast.Udelete, { Ast.e = Ast.Ident _; _ }) ->
        raise Hit
    | Ast.Func f -> carry f
    | Ast.Assign (_, { Ast.e = Ast.Ident n; _ }, _)
    | Ast.Update (_, _, { Ast.e = Ast.Ident n; _ }) ->
        Hashtbl.replace written n ()
    | _ -> ()
  in
  let fs (st : Ast.stmt) =
    match st.Ast.s with
    | Ast.Func_decl f -> carry f
    | Ast.For_in (_, n, _, _) | Ast.For_of (_, n, _, _) ->
        Hashtbl.replace written n ()
    | _ -> ()
  in
  match Jsast.Visit.iter_program ~fe ~fs prog with
  | () -> Seq.exists (Hashtbl.mem carried) (Hashtbl.to_seq_keys written)
  | exception Hit -> true
