(* Lexical scope resolution.

   One pass over the AST with an explicit scope stack. Entering a function
   (or the program) first hoists its [var] and function declarations, then
   pre-registers the body's top-level [let]/[const] names as
   not-yet-initialised — they shadow outer bindings from the start of the
   block, which is what makes TDZ references detectable lexically. Blocks,
   catch clauses, for-heads and switch bodies each push their own frame.

   The approximation is lexical, matching what a linter (and an engine's
   early-error phase) can decide without running the program: a reference
   that resolves to a not-yet-declared lexical binding is a TDZ use unless
   a function boundary lies between the reference and the binding (the
   function may legitimately be called after the declaration). *)

open Jsast
open Ast

type binding_kind = Bvar | Blet | Bconst | Bfunc | Bparam | Bcatch

type scope_kind = Kprogram | Kfunction | Kblock | Kcatch | Kfor

type binding = { b_name : string; b_kind : binding_kind; b_scope : int }

type issue =
  | Duplicate_decl of string
  | Const_assign of string
  | Tdz_use of string

type resolution = {
  res_scopes : int;
  res_bindings : binding list;
  res_free : string list;
  res_free_all : string list;
  res_issues : issue list;
}

let issue_to_string = function
  | Duplicate_decl n -> "duplicate declaration of '" ^ n ^ "'"
  | Const_assign n -> "assignment to constant '" ^ n ^ "'"
  | Tdz_use n -> "'" ^ n ^ "' used before its let/const declaration"

(* A binding entry; [declared = false] while the lexical declaration has
   not been reached in statement order (its temporal dead zone). *)
type entry = { mutable declared : bool; e_kind : binding_kind }

type frame = {
  f_id : int;
  f_fun : bool;  (* function boundary: program or function body *)
  f_tbl : (string, entry) Hashtbl.t;
}

type st = {
  mutable frames : frame list;  (* innermost first *)
  mutable next_id : int;
  mutable bindings : binding list;  (* reverse declaration order *)
  mutable issues : issue list;      (* reverse order *)
  free_seen : (string, unit) Hashtbl.t;
  mutable free : string list;       (* reverse first-reference order *)
}

let push_frame (t : st) ~(is_fun : bool) : frame =
  let fr = { f_id = t.next_id; f_fun = is_fun; f_tbl = Hashtbl.create 8 } in
  t.next_id <- t.next_id + 1;
  t.frames <- fr :: t.frames;
  fr

let pop_frame (t : st) = t.frames <- List.tl t.frames

let issue (t : st) (i : issue) = t.issues <- i :: t.issues

let is_lexical = function Blet | Bconst -> true | _ -> false

(* Declare [name] in [fr]. Lexical kinds conflict with any existing binding
   of the same scope; var/function conflict only with lexical ones (var/var
   and function/function redeclaration is legal). [declared:false] marks a
   pre-registered lexical still in its TDZ. *)
let declare (t : st) (fr : frame) ?(declared = true) (name : string)
    (kind : binding_kind) : unit =
  (match Hashtbl.find_opt fr.f_tbl name with
  | Some prev when is_lexical kind || is_lexical prev.e_kind ->
      issue t (Duplicate_decl name)
  | _ -> ());
  Hashtbl.replace fr.f_tbl name { declared; e_kind = kind };
  t.bindings <- { b_name = name; b_kind = kind; b_scope = fr.f_id } :: t.bindings

(* The lexical declaration statement has been reached: close its TDZ. *)
let mark_declared (t : st) (name : string) : unit =
  match t.frames with
  | fr :: _ -> (
      match Hashtbl.find_opt fr.f_tbl name with
      | Some e -> e.declared <- true
      | None -> ())
  | [] -> ()

(* Resolve a reference against the scope chain. *)
let reference (t : st) ~(write : bool) (name : string) : unit =
  let rec look frames crossed_fun =
    match frames with
    | [] ->
        if not (Hashtbl.mem t.free_seen name) then begin
          Hashtbl.replace t.free_seen name ();
          t.free <- name :: t.free
        end
    | fr :: rest -> (
        match Hashtbl.find_opt fr.f_tbl name with
        | Some e ->
            if (not e.declared) && not crossed_fun then issue t (Tdz_use name);
            if write && e.e_kind = Bconst then issue t (Const_assign name)
        | None -> look rest (crossed_fun || fr.f_fun))
  in
  look t.frames false

(* --- hoisting: [var] and function declarations of a function body,
   stopping at nested function boundaries. The traversal is the shared
   [Jsast.Visit.hoist_stmt] — the same walk the interpreter uses to build
   its environments, so resolver and engine cannot drift. --- *)

let hoist_stmt (t : st) (fr : frame) (s : stmt) : unit =
  Jsast.Visit.hoist_stmt s
    ~on_var:(fun n -> declare t fr n Bvar)
    ~on_func:(fun (_, f) ->
      match f.fname with Some n -> declare t fr n Bfunc | None -> ())

(* Pre-register a block's immediate let/const declarations (their TDZ spans
   the whole block). *)
let prescan_lexicals (t : st) (fr : frame) (body : stmt list) : unit =
  List.iter
    (fun (s : stmt) ->
      match s.s with
      | Var_decl ((Let as k), decls) | Var_decl ((Const as k), decls) ->
          let kind = if k = Let then Blet else Bconst in
          List.iter (fun (n, _) -> declare t fr ~declared:false n kind) decls
      | _ -> ())
    body

(* --- the walk --- *)

let rec walk_expr (t : st) (x : expr) : unit =
  let e = walk_expr t in
  match x.e with
  | Lit _ | This -> ()
  | Ident n -> reference t ~write:false n
  | Array_lit elems -> List.iter (Option.iter e) elems
  | Object_lit props ->
      List.iter
        (fun (pn, v) ->
          (match pn with PN_computed k -> e k | _ -> ());
          e v)
        props
  | Func f | Arrow f -> walk_func t f
  | Unary (_, a) -> e a
  | Update (_, _, a) -> (
      match a.e with Ident n -> reference t ~write:true n | _ -> e a)
  | Binary (_, a, b) | Logical (_, a, b) | Seq (a, b) ->
      e a;
      e b
  | Assign (_, lhs, rhs) ->
      (match lhs.e with
      | Ident n -> reference t ~write:true n
      | _ -> e lhs);
      e rhs
  | Cond (a, b, c) ->
      e a;
      e b;
      e c
  | Call (f, args) | New (f, args) ->
      e f;
      List.iter e args
  | Member (o, Pfield _) -> e o
  | Member (o, Pindex i) ->
      e o;
      e i
  | Template parts ->
      List.iter (function Tstr _ -> () | Tsub s -> e s) parts

and walk_func (t : st) (f : func) : unit =
  let fr = push_frame t ~is_fun:true in
  (* a named function expression binds its own name inside the body *)
  Option.iter (fun n -> declare t fr n Bfunc) f.fname;
  List.iter (fun p -> Hashtbl.replace fr.f_tbl p { declared = true; e_kind = Bparam }) f.params;
  List.iter
    (fun p -> t.bindings <- { b_name = p; b_kind = Bparam; b_scope = fr.f_id } :: t.bindings)
    f.params;
  List.iter (hoist_stmt t fr) f.body;
  prescan_lexicals t fr f.body;
  List.iter (walk_stmt t) f.body;
  pop_frame t

and walk_block (t : st) (body : stmt list) : unit =
  let fr = push_frame t ~is_fun:false in
  prescan_lexicals t fr body;
  List.iter (walk_stmt t) body;
  pop_frame t

and walk_stmt (t : st) (s : stmt) : unit =
  let e = walk_expr t in
  let st_ = walk_stmt t in
  match s.s with
  | Expr_stmt x -> e x
  | Var_decl (Var, decls) ->
      (* names already hoisted; only the initialisers evaluate here *)
      List.iter (fun (_, init) -> Option.iter e init) decls
  | Var_decl ((Let | Const), decls) ->
      (* each initialiser evaluates before its binding leaves the TDZ,
         so [let x = x] is caught *)
      List.iter
        (fun (n, init) ->
          Option.iter e init;
          mark_declared t n)
        decls
  | Func_decl f -> walk_func t f
  | Return x -> Option.iter e x
  | If (c, a, b) ->
      e c;
      st_ a;
      Option.iter st_ b
  | Block body -> walk_block t body
  | For (init, cond, upd, body) ->
      let fr = push_frame t ~is_fun:false in
      (match init with
      | Some (FI_decl (Var, decls)) ->
          List.iter (fun (_, i) -> Option.iter e i) decls
      | Some (FI_decl ((Let as k), decls)) | Some (FI_decl ((Const as k), decls))
        ->
          let kind = if k = Let then Blet else Bconst in
          List.iter (fun (n, _) -> declare t fr ~declared:false n kind) decls;
          List.iter
            (fun (n, i) ->
              Option.iter e i;
              mark_declared t n)
            decls
      | Some (FI_expr x) -> e x
      | None -> ());
      Option.iter e cond;
      Option.iter e upd;
      st_ body;
      pop_frame t
  | For_in (k, n, obj, body) | For_of (k, n, obj, body) ->
      (* the iterated object evaluates outside the loop binding's scope *)
      e obj;
      (match k with
      | None ->
          reference t ~write:true n;
          st_ body
      | Some Var ->
          (* hoisted already *)
          st_ body
      | Some (Let | Const) ->
          let fr = push_frame t ~is_fun:false in
          declare t fr n (if k = Some Let then Blet else Bconst);
          st_ body;
          pop_frame t)
  | While (c, body) ->
      e c;
      st_ body
  | Do_while (body, c) ->
      st_ body;
      e c
  | Break _ | Continue _ | Empty | Debugger -> ()
  | Throw x -> e x
  | Try (b, h, f) ->
      walk_block t b;
      Option.iter
        (fun (param, hb) ->
          let fr = push_frame t ~is_fun:false in
          declare t fr param Bcatch;
          prescan_lexicals t fr hb;
          List.iter st_ hb;
          pop_frame t)
        h;
      Option.iter (walk_block t) f
  | Switch (d, cases) ->
      e d;
      (* all cases of a switch share one block scope *)
      let fr = push_frame t ~is_fun:false in
      List.iter (fun (_, body) -> prescan_lexicals t fr body) cases;
      List.iter
        (fun (c, body) ->
          Option.iter e c;
          List.iter st_ body)
        cases;
      pop_frame t
  | Labeled (_, body) -> st_ body

let resolve (p : program) : resolution =
  let t =
    {
      frames = [];
      next_id = 0;
      bindings = [];
      issues = [];
      free_seen = Hashtbl.create 16;
      free = [];
    }
  in
  let fr = push_frame t ~is_fun:true in
  List.iter (hoist_stmt t fr) p.prog_body;
  prescan_lexicals t fr p.prog_body;
  List.iter (walk_stmt t) p.prog_body;
  pop_frame t;
  let free_all = List.rev t.free in
  (* keep the first occurrence of each repeated issue *)
  let dedup l =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun i ->
        if Hashtbl.mem seen i then false
        else begin
          Hashtbl.replace seen i ();
          true
        end)
      l
  in
  {
    res_scopes = t.next_id;
    res_bindings = List.rev t.bindings;
    res_free =
      List.filter (fun n -> not (List.mem n Visit.builtin_globals)) free_all;
    res_free_all = free_all;
    res_issues = dedup (List.rev t.issues);
  }

let free_variables (p : program) : string list = (resolve p).res_free
