(* JavaScript source emission.

   [program_to_string] produces source that the `jsparse` parser parses back
   to an equivalent AST (round-tripping is property-tested). Emission is
   conservative with parentheses: a child expression is parenthesised
   whenever its precedence is not strictly higher than the context requires,
   which keeps the printer simple and provably faithful at the cost of an
   occasional redundant pair. *)

open Ast

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\x00' .. '\x1f' ->
          Buffer.add_string buf (Printf.sprintf "\\x%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Numeric literals are printed with the engine's number formatter so that
   e.g. [3.] prints as [3] and round-trips. Negative numbers never appear as
   literals (the parser produces [Unary (Uneg, ...)]); guard anyway.
   Integers below 1e21 print as "%.0f" would, "-0" included: below 2^53
   through [string_of_int], which skips the format interpreter. *)
let print_num f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "Infinity"
  else if f = Float.neg_infinity then "-Infinity"
  else if Float.is_integer f && Float.abs f < 9007199254740992.0 then
    if f = 0.0 && Float.sign_bit f then "-0" else string_of_int (Float.to_int f)
  else if Float.is_integer f && Float.abs f < 1e21 then Printf.sprintf "%.0f" f
  else (* shortest representation that round-trips *)
    Cutil.Numfmt.shortest_g f

type ctx = { buf : Buffer.t; mutable indent : int }

let nl ctx =
  Buffer.add_char ctx.buf '\n';
  Buffer.add_string ctx.buf (String.make (2 * ctx.indent) ' ')

let add ctx s = Buffer.add_string ctx.buf s

(* Precedence levels for non-binary expressions, aligned with
   {!Ast.binop_prec} (binary 4..14). *)
let prec_seq = 0
let prec_assign = 2
let prec_cond = 3
let prec_unary = 15
let prec_postfix = 16
let prec_call = 17
let prec_primary = 18

let expr_prec (x : expr) =
  match x.e with
  | Seq _ -> prec_seq
  | Assign _ -> prec_assign
  | Cond _ -> prec_cond
  | Logical (op, _, _) -> logop_prec op
  | Binary (op, _, _) -> binop_prec op
  | Unary _ -> prec_unary
  | Update (_, true, _) -> prec_unary
  | Update (_, false, _) -> prec_postfix
  | Call _ | New _ | Member _ -> prec_call
  | Func _ | Arrow _ -> prec_assign
  | Lit _ | Ident _ | This | Array_lit _ | Object_lit _ | Template _ ->
      prec_primary

let rec emit_expr ctx ~min_prec (x : expr) =
  let p = expr_prec x in
  let needs_parens =
    p < min_prec
    ||
    (* function expressions at statement head would parse as declarations;
       parenthesise them whenever they open a subexpression chain. *)
    match x.e with Func _ | Object_lit _ -> min_prec >= prec_call | _ -> false
  in
  if needs_parens then add ctx "(";
  emit_expr_naked ctx x;
  if needs_parens then add ctx ")"

and emit_expr_naked ctx (x : expr) =
  match x.e with
  | Lit Lnull -> add ctx "null"
  | Lit (Lbool b) -> add ctx (if b then "true" else "false")
  | Lit (Lnum f) -> add ctx (print_num f)
  | Lit (Lstr s) -> add ctx ("\"" ^ escape_string s ^ "\"")
  | Lit (Lregexp (pat, flags)) -> add ctx ("/" ^ pat ^ "/" ^ flags)
  | Ident id -> add ctx id
  | This -> add ctx "this"
  | Array_lit elems ->
      add ctx "[";
      List.iteri
        (fun i el ->
          if i > 0 then add ctx ", ";
          match el with
          | None -> ()
          | Some el -> emit_expr ctx ~min_prec:prec_assign el)
        elems;
      add ctx "]"
  | Object_lit props ->
      add ctx "{";
      List.iteri
        (fun i (pn, v) ->
          if i > 0 then add ctx ", ";
          (match pn with
          | PN_ident n -> add ctx n
          | PN_str s -> add ctx ("\"" ^ escape_string s ^ "\"")
          | PN_num f -> add ctx (print_num f)
          | PN_computed e ->
              add ctx "[";
              emit_expr ctx ~min_prec:prec_assign e;
              add ctx "]");
          add ctx ": ";
          emit_expr ctx ~min_prec:prec_assign v)
        props;
      add ctx "}"
  | Func f -> emit_func ctx f
  | Arrow f ->
      add ctx "(";
      add ctx (String.concat ", " f.params);
      add ctx ") => ";
      emit_block ctx f.body
  | Unary (op, operand) ->
      let s = unop_to_string op in
      add ctx s;
      (match op with
      | Utypeof | Uvoid | Udelete -> add ctx " "
      | Uneg | Uplus -> (
          (* avoid [- -x] gluing into [--x] *)
          match operand.e with
          | Unary ((Uneg | Uplus), _) | Update _ -> add ctx " "
          | _ -> ())
      | _ -> ());
      emit_expr ctx ~min_prec:prec_unary operand
  | Binary (op, a, b) ->
      let p = binop_prec op in
      (* left associative: left child may share the level, right must bind
         tighter; [Exp] is right associative. *)
      let lp, rp = if op = Exp then (p + 1, p) else (p, p + 1) in
      emit_expr ctx ~min_prec:lp a;
      add ctx (" " ^ binop_to_string op ^ " ");
      emit_expr ctx ~min_prec:rp b
  | Logical (op, a, b) ->
      let p = logop_prec op in
      emit_expr ctx ~min_prec:p a;
      add ctx (" " ^ logop_to_string op ^ " ");
      emit_expr ctx ~min_prec:(p + 1) b
  | Assign (op, lhs, rhs) ->
      emit_expr ctx ~min_prec:prec_postfix lhs;
      (match op with
      | None -> add ctx " = "
      | Some op -> add ctx (" " ^ binop_to_string op ^ "= "));
      emit_expr ctx ~min_prec:prec_assign rhs
  | Update (op, prefix, target) ->
      let s = match op with Incr -> "++" | Decr -> "--" in
      if prefix then (
        add ctx s;
        emit_expr ctx ~min_prec:prec_unary target)
      else (
        emit_expr ctx ~min_prec:prec_postfix target;
        add ctx s)
  | Cond (c, t, f) ->
      emit_expr ctx ~min_prec:(prec_cond + 1) c;
      add ctx " ? ";
      emit_expr ctx ~min_prec:prec_assign t;
      add ctx " : ";
      emit_expr ctx ~min_prec:prec_assign f;
      ()
  | Call (f, args) ->
      emit_expr ctx ~min_prec:prec_call f;
      emit_args ctx args
  | New (f, args) ->
      add ctx "new ";
      emit_expr ctx ~min_prec:prec_call f;
      emit_args ctx args
  | Member (o, Pfield name) ->
      (* [1 .toString()] needs separating space or parens; parenthesise
         numeric receivers. *)
      (match o.e with
      | Lit (Lnum _) ->
          add ctx "(";
          emit_expr_naked ctx o;
          add ctx ")"
      | _ -> emit_expr ctx ~min_prec:prec_call o);
      add ctx ".";
      add ctx name
  | Member (o, Pindex i) ->
      emit_expr ctx ~min_prec:prec_call o;
      add ctx "[";
      emit_expr ctx ~min_prec:prec_assign i;
      add ctx "]"
  | Seq (a, b) ->
      emit_expr ctx ~min_prec:prec_assign a;
      add ctx ", ";
      emit_expr ctx ~min_prec:prec_seq b
  | Template parts ->
      add ctx "`";
      List.iter
        (function
          | Tstr s -> add ctx (escape_template s)
          | Tsub e ->
              add ctx "${";
              emit_expr ctx ~min_prec:prec_seq e;
              add ctx "}")
        parts;
      add ctx "`"

and escape_template s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '`' -> Buffer.add_string buf "\\`"
      | '\\' -> Buffer.add_string buf "\\\\"
      | '$' -> Buffer.add_string buf "\\$"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

and emit_args ctx args =
  add ctx "(";
  List.iteri
    (fun i a ->
      if i > 0 then add ctx ", ";
      emit_expr ctx ~min_prec:prec_assign a)
    args;
  add ctx ")"

and emit_func ctx f =
  add ctx "function";
  (match f.fname with None -> () | Some n -> add ctx (" " ^ n));
  add ctx "(";
  add ctx (String.concat ", " f.params);
  add ctx ") ";
  emit_block ctx f.body

and emit_block ctx body =
  add ctx "{";
  ctx.indent <- ctx.indent + 1;
  List.iter
    (fun st ->
      nl ctx;
      emit_stmt ctx st)
    body;
  ctx.indent <- ctx.indent - 1;
  nl ctx;
  add ctx "}"

and emit_stmt ctx (st : stmt) =
  match st.s with
  | Expr_stmt x ->
      (* a leading `function` / `{` would be parsed as a declaration/block *)
      (match x.e with
      | Func _ | Object_lit _ ->
          add ctx "(";
          emit_expr_naked ctx x;
          add ctx ")"
      | _ -> emit_expr ctx ~min_prec:prec_seq x);
      add ctx ";"
  | Var_decl (k, decls) ->
      add ctx (var_kind_to_string k ^ " ");
      List.iteri
        (fun i (n, init) ->
          if i > 0 then add ctx ", ";
          add ctx n;
          match init with
          | None -> ()
          | Some x ->
              add ctx " = ";
              emit_expr ctx ~min_prec:prec_assign x)
        decls;
      add ctx ";"
  | Func_decl f -> emit_func ctx f
  | Return None -> add ctx "return;"
  | Return (Some x) ->
      add ctx "return ";
      emit_expr ctx ~min_prec:prec_seq x;
      add ctx ";"
  | If (c, t, f) -> (
      add ctx "if (";
      emit_expr ctx ~min_prec:prec_seq c;
      add ctx ") ";
      emit_stmt_as_block ctx t;
      match f with
      | None -> ()
      | Some f ->
          add ctx " else ";
          emit_stmt_as_block ctx f)
  | Block body -> emit_block ctx body
  | For (init, c, upd, body) ->
      add ctx "for (";
      (match init with
      | None -> ()
      | Some (FI_decl (k, decls)) ->
          add ctx (var_kind_to_string k ^ " ");
          List.iteri
            (fun i (n, e) ->
              if i > 0 then add ctx ", ";
              add ctx n;
              match e with
              | None -> ()
              | Some e ->
                  add ctx " = ";
                  emit_expr ctx ~min_prec:prec_assign e)
            decls
      | Some (FI_expr x) -> emit_expr ctx ~min_prec:prec_seq x);
      add ctx "; ";
      (match c with None -> () | Some c -> emit_expr ctx ~min_prec:prec_seq c);
      add ctx "; ";
      (match upd with
      | None -> ()
      | Some u -> emit_expr ctx ~min_prec:prec_seq u);
      add ctx ") ";
      emit_stmt_as_block ctx body
  | For_in (k, x, obj, body) ->
      add ctx "for (";
      (match k with
      | None -> ()
      | Some k -> add ctx (var_kind_to_string k ^ " "));
      add ctx x;
      add ctx " in ";
      emit_expr ctx ~min_prec:prec_seq obj;
      add ctx ") ";
      emit_stmt_as_block ctx body
  | For_of (k, x, obj, body) ->
      add ctx "for (";
      (match k with
      | None -> ()
      | Some k -> add ctx (var_kind_to_string k ^ " "));
      add ctx x;
      add ctx " of ";
      emit_expr ctx ~min_prec:prec_assign obj;
      add ctx ") ";
      emit_stmt_as_block ctx body
  | While (c, body) ->
      add ctx "while (";
      emit_expr ctx ~min_prec:prec_seq c;
      add ctx ") ";
      emit_stmt_as_block ctx body
  | Do_while (body, c) ->
      add ctx "do ";
      emit_stmt_as_block ctx body;
      add ctx " while (";
      emit_expr ctx ~min_prec:prec_seq c;
      add ctx ");"
  | Break None -> add ctx "break;"
  | Break (Some l) -> add ctx ("break " ^ l ^ ";")
  | Continue None -> add ctx "continue;"
  | Continue (Some l) -> add ctx ("continue " ^ l ^ ";")
  | Throw x ->
      add ctx "throw ";
      emit_expr ctx ~min_prec:prec_seq x;
      add ctx ";"
  | Try (body, handler, finalizer) ->
      add ctx "try ";
      emit_block ctx body;
      (match handler with
      | None -> ()
      | Some (param, hbody) ->
          add ctx (" catch (" ^ param ^ ") ");
          emit_block ctx hbody);
      (match finalizer with
      | None -> ()
      | Some fbody ->
          add ctx " finally ";
          emit_block ctx fbody)
  | Switch (d, cases) ->
      add ctx "switch (";
      emit_expr ctx ~min_prec:prec_seq d;
      add ctx ") {";
      ctx.indent <- ctx.indent + 1;
      List.iter
        (fun (c, body) ->
          nl ctx;
          (match c with
          | None -> add ctx "default:"
          | Some c ->
              add ctx "case ";
              emit_expr ctx ~min_prec:prec_seq c;
              add ctx ":");
          ctx.indent <- ctx.indent + 1;
          List.iter
            (fun st ->
              nl ctx;
              emit_stmt ctx st)
            body;
          ctx.indent <- ctx.indent - 1)
        cases;
      ctx.indent <- ctx.indent - 1;
      nl ctx;
      add ctx "}"
  | Labeled (l, st) ->
      add ctx (l ^ ": ");
      emit_stmt ctx st
  | Empty -> add ctx ";"
  | Debugger -> add ctx "debugger;"

(* Bodies of if/while/for are always emitted as blocks: it avoids the
   dangling-else ambiguity entirely. *)
and emit_stmt_as_block ctx st =
  match st.s with
  | Block _ -> emit_stmt ctx st
  | _ -> emit_block ctx [ st ]

let program_to_string (p : program) =
  let ctx = { buf = Buffer.create 256; indent = 0 } in
  if p.prog_strict then add ctx "\"use strict\";\n";
  List.iter
    (fun st ->
      emit_stmt ctx st;
      add ctx "\n")
    p.prog_body;
  Buffer.contents ctx.buf
