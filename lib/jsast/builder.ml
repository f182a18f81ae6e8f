(* Smart constructors assigning fresh node ids.

   All AST producers (the parser, the baseline mutators, the test-data
   generator and the reducer) build nodes through this module so that every
   node in a program carries a distinct id for coverage accounting. Ids only
   need to be unique within one program; a global counter is the simplest
   way to guarantee that and keeps construction allocation-free besides the
   node itself. *)

open Ast

let counter = ref 0

let fresh () = incr counter; !counter

let e (desc : expr_desc) : expr = { eid = fresh (); e = desc }
let s (desc : stmt_desc) : stmt = { sid = fresh (); s = desc }

(* Expressions *)

let lit l = e (Lit l)
let null = lit Lnull
let bool b = lit (Lbool b)
let num f = lit (Lnum f)
let int i = num (Float.of_int i)
let str x = lit (Lstr x)
let regexp pat flags = lit (Lregexp (pat, flags))
let ident x = e (Ident x)
let undefined () = ident "undefined"
let array elems = e (Array_lit (List.map Option.some elems))
let object_ props = e (Object_lit props)
let binary op a b = e (Binary (op, a, b))
let assign lhs rhs = e (Assign (None, lhs, rhs))
let call f args = e (Call (f, args))
let new_ f args = e (New (f, args))
let field obj name = e (Member (obj, Pfield name))
let index obj i = e (Member (obj, Pindex i))

(* Statements *)

let expr_stmt x = s (Expr_stmt x)
let var name init = s (Var_decl (Var, [ (name, Some init) ]))
let block stmts = s (Block stmts)

(* [print x] builds [print(x)] — the output primitive used by every engine
   testbed for differential comparison. *)
let print x = expr_stmt (call (ident "print") [ x ])

let program ?(strict = false) body = { prog_body = body; prog_strict = strict }

(* Deep copy with fresh ids; used when a mutator grafts a subtree from one
   program into another, so the host program keeps id uniqueness. *)
let rec refresh_expr (x : expr) : expr =
  e (refresh_expr_desc x.e)

and refresh_expr_desc = function
  | Lit l -> Lit l
  | Ident x -> Ident x
  | This -> This
  | Array_lit elems -> Array_lit (List.map (Option.map refresh_expr) elems)
  | Object_lit props ->
      Object_lit
        (List.map (fun (pn, v) -> (refresh_propname pn, refresh_expr v)) props)
  | Func f -> Func (refresh_func f)
  | Arrow f -> Arrow (refresh_func f)
  | Unary (op, x) -> Unary (op, refresh_expr x)
  | Binary (op, a, b) -> Binary (op, refresh_expr a, refresh_expr b)
  | Logical (op, a, b) -> Logical (op, refresh_expr a, refresh_expr b)
  | Assign (op, l, r) -> Assign (op, refresh_expr l, refresh_expr r)
  | Update (op, pre, x) -> Update (op, pre, refresh_expr x)
  | Cond (c, t, f) -> Cond (refresh_expr c, refresh_expr t, refresh_expr f)
  | Call (f, args) -> Call (refresh_expr f, List.map refresh_expr args)
  | New (f, args) -> New (refresh_expr f, List.map refresh_expr args)
  | Member (o, Pfield n) -> Member (refresh_expr o, Pfield n)
  | Member (o, Pindex i) -> Member (refresh_expr o, Pindex (refresh_expr i))
  | Seq (a, b) -> Seq (refresh_expr a, refresh_expr b)
  | Template parts ->
      Template
        (List.map
           (function Tstr t -> Tstr t | Tsub x -> Tsub (refresh_expr x))
           parts)

and refresh_propname = function
  | PN_computed x -> PN_computed (refresh_expr x)
  | pn -> pn

and refresh_func f = { f with body = List.map refresh_stmt f.body }

and refresh_stmt (st : stmt) : stmt =
  s (refresh_stmt_desc st.s)

and refresh_stmt_desc = function
  | Expr_stmt x -> Expr_stmt (refresh_expr x)
  | Var_decl (k, ds) ->
      Var_decl (k, List.map (fun (n, i) -> (n, Option.map refresh_expr i)) ds)
  | Func_decl f -> Func_decl (refresh_func f)
  | Return x -> Return (Option.map refresh_expr x)
  | If (c, t, f) ->
      If (refresh_expr c, refresh_stmt t, Option.map refresh_stmt f)
  | Block body -> Block (List.map refresh_stmt body)
  | For (init, c, upd, body) ->
      For
        ( Option.map refresh_for_init init,
          Option.map refresh_expr c,
          Option.map refresh_expr upd,
          refresh_stmt body )
  | For_in (k, x, o, body) -> For_in (k, x, refresh_expr o, refresh_stmt body)
  | For_of (k, x, o, body) -> For_of (k, x, refresh_expr o, refresh_stmt body)
  | While (c, body) -> While (refresh_expr c, refresh_stmt body)
  | Do_while (body, c) -> Do_while (refresh_stmt body, refresh_expr c)
  | Break l -> Break l
  | Continue l -> Continue l
  | Throw x -> Throw (refresh_expr x)
  | Try (b, h, f) ->
      Try
        ( List.map refresh_stmt b,
          Option.map (fun (p, hb) -> (p, List.map refresh_stmt hb)) h,
          Option.map (List.map refresh_stmt) f )
  | Switch (d, cases) ->
      Switch
        ( refresh_expr d,
          List.map
            (fun (c, body) -> (Option.map refresh_expr c, List.map refresh_stmt body))
            cases )
  | Labeled (l, st) -> Labeled (l, refresh_stmt st)
  | Empty -> Empty
  | Debugger -> Debugger

and refresh_for_init = function
  | FI_decl (k, ds) ->
      FI_decl (k, List.map (fun (n, i) -> (n, Option.map refresh_expr i)) ds)
  | FI_expr x -> FI_expr (refresh_expr x)
