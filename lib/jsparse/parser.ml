(* Recursive-descent parser for the JavaScript subset.

   The parser is parameterised by {!options} so that each simulated engine
   can exhibit its own front-end behaviour: older engines reject ES2015
   syntax outright, and some engines carry parser conformance bugs (e.g.
   accepting a [for] head with no body, the ChakraCore bug of Listing 7).

   The default options model a standard-conforming ES2019 front end; the
   same configuration is what the pipeline uses as its JSHint-substitute
   syntax oracle. *)

open Jsast
module B = Builder

exception Syntax_error of string * int (* message, line *)

type options = {
  accept_for_missing_body : bool;
      (** quirk: treat [for(head)] with no body as an empty loop *)
  accept_dup_params_strict : bool;
      (** quirk: no SyntaxError on duplicate params in strict mode *)
  accept_strict_delete_unqualified : bool;
      (** quirk: no SyntaxError on [delete x] in strict mode *)
  quirk_sink : string -> unit;
      (** called with the quirk name when a quirk-gated acceptance actually
          fires, so campaigns can attribute parse-stage deviations *)
  strict_sensitive_sink : unit -> unit;
      (** called whenever the parse reaches a construct whose outcome
          depends on the *ambient* strict flag (duplicate parameters,
          assignment to eval/arguments, [delete identifier]) — whether or
          not the parse is strict. If a sloppy parse never calls it, a
          [force_strict] parse of the same source is guaranteed
          identical, so front-end caches can share one parse across
          modes. *)
  edition_sensitive_sink : unit -> unit;
      (** called whenever the parse reaches a construct that one of the
          [reject_*] flags below gates (let/const, for-of, arrow
          functions, [**], template literals, a sticky regexp) — whether
          or not the flag is set. If a parse under [default_options]
          never calls it, an [es5_options] parse of the same source takes
          the same path and yields the same program, so front-end caches
          can share one parse across ES profiles. *)
  reject_template_literals : bool;  (** pre-ES2015 front end *)
  reject_arrow_functions : bool;    (** pre-ES2015 front end *)
  reject_let_const : bool;          (** pre-ES2015 front end *)
  reject_for_of : bool;             (** pre-ES2015 front end *)
  reject_exponent_op : bool;        (** pre-ES2016 front end *)
  reject_regexp_sticky : bool;      (** pre-ES2015: flag [y] unsupported *)
}

let default_options =
  {
    accept_for_missing_body = false;
    accept_dup_params_strict = false;
    accept_strict_delete_unqualified = false;
    quirk_sink = ignore;
    strict_sensitive_sink = ignore;
    edition_sensitive_sink = ignore;
    reject_template_literals = false;
    reject_arrow_functions = false;
    reject_let_const = false;
    reject_for_of = false;
    reject_exponent_op = false;
    reject_regexp_sticky = false;
  }

(* Front end of an engine that only implements ES5.1. *)
let es5_options =
  {
    default_options with
    reject_template_literals = true;
    reject_arrow_functions = true;
    reject_let_const = true;
    reject_for_of = true;
    reject_exponent_op = true;
    reject_regexp_sticky = true;
  }

type state = {
  toks : Lexer.lexed array;
  mutable idx : int;
  opts : options;
  mutable strict : bool;
}

let cur st = st.toks.(st.idx).tok
let cur_line st = st.toks.(st.idx).line
let nl_before st = st.toks.(st.idx).newline_before
let advance st = if st.idx < Array.length st.toks - 1 then st.idx <- st.idx + 1

let err st msg = raise (Syntax_error (msg, cur_line st))

let expect_punct st p =
  match cur st with
  | Token.Tpunct q when q = p -> advance st
  | t -> err st (Printf.sprintf "expected '%s', found %s" p (Token.to_string t))

let eat_punct st p =
  match cur st with
  | Token.Tpunct q when q = p ->
      advance st;
      true
  | _ -> false

let eat_keyword st k =
  match cur st with
  | Token.Tkeyword q when q = k ->
      advance st;
      true
  | _ -> false

let expect_keyword st k =
  if not (eat_keyword st k) then
    err st (Printf.sprintf "expected keyword %s, found %s" k (Token.to_string (cur st)))

let expect_ident st =
  match cur st with
  | Token.Tident n ->
      advance st;
      n
  (* [of] and [undefined] are not reserved *)
  | Token.Tkeyword "of" ->
      advance st;
      "of"
  | t -> err st ("expected identifier, found " ^ Token.to_string t)

(* Automatic semicolon insertion: an explicit ';', or the offending token is
   '}' / EOF, or a line terminator preceded it. *)
let semicolon st =
  if eat_punct st ";" then ()
  else
    match cur st with
    | Token.Tpunct "}" | Token.Teof -> ()
    | _ when nl_before st -> ()
    | t -> err st ("expected ';', found " ^ Token.to_string t)

(* Lookahead: does the parenthesised group starting at the current '('
   close and get followed by '=>'? Used to tell arrow parameter lists from
   parenthesised expressions. *)
let is_arrow_params st =
  let n = Array.length st.toks in
  let rec scan i depth =
    if i >= n then false
    else
      match st.toks.(i).tok with
      | Token.Tpunct "(" -> scan (i + 1) (depth + 1)
      | Token.Tpunct ")" ->
          if depth = 1 then
            i + 1 < n && st.toks.(i + 1).tok = Token.Tpunct "=>"
          else scan (i + 1) (depth - 1)
      | Token.Teof -> false
      | _ -> scan (i + 1) depth
  in
  scan st.idx 0

let check_params st params =
  (* the duplicate scan runs in sloppy mode too: a duplicate is a
     strict-sensitive construct even when this parse accepts it *)
  let seen = Hashtbl.create 4 in
  List.iter
    (fun p ->
      if Hashtbl.mem seen p then begin
        st.opts.strict_sensitive_sink ();
        if st.strict then
          if st.opts.accept_dup_params_strict then
            st.opts.quirk_sink "strict-dup-params-accepted"
          else err st ("duplicate parameter name in strict mode: " ^ p)
      end
      else Hashtbl.add seen p ())
    params

(* Cumulative front-end invocation count of this process. The campaign's
   parse cache is sized against this: tests snapshot it around a
   [Difftest.run_case] call to assert one parse per distinct front-end
   group rather than two or three per testbed. *)
let parses = Atomic.make 0

let parse_count () = Atomic.get parses

(* An arrow function starts here: edition-gated, so report it. *)
let arrow_ok st =
  st.opts.edition_sensitive_sink ();
  not st.opts.reject_arrow_functions

let rec parse_program ?(opts = default_options) ?(force_strict = false)
    (src : string) : Ast.program =
  Atomic.incr parses;
  let toks =
    try Lexer.tokenize src
    with Lexer.Error (msg, line) -> raise (Syntax_error (msg, line))
  in
  let st = { toks; idx = 0; opts; strict = force_strict } in
  (* directive prologue; [force_strict] models a strict-mode testbed where
     the whole script is treated as strict code. The prologue is consumed
     either way, so a forced-strict parse of a script that opts in itself
     is the same program as its sloppy parse *)
  let directive =
    match cur st with
    | Token.Tstr "use strict" ->
        advance st;
        semicolon st;
        true
    | _ -> false
  in
  let strict = force_strict || directive in
  st.strict <- strict;
  let body = ref [] in
  while cur st <> Token.Teof do
    body := parse_stmt st :: !body
  done;
  { Ast.prog_body = List.rev !body; prog_strict = strict }

and parse_stmt st : Ast.stmt =
  match cur st with
  | Token.Tpunct "{" -> B.s (Ast.Block (parse_block st))
  | Token.Tpunct ";" ->
      advance st;
      B.s Ast.Empty
  | Token.Tkeyword ("var" | "let" | "const") -> parse_var_stmt st
  | Token.Tkeyword "function" -> parse_func_decl st
  | Token.Tkeyword "return" -> parse_return st
  | Token.Tkeyword "if" -> parse_if st
  | Token.Tkeyword "for" -> parse_for st
  | Token.Tkeyword "while" -> parse_while st
  | Token.Tkeyword "do" -> parse_do_while st
  | Token.Tkeyword "break" ->
      advance st;
      let label = parse_opt_label st in
      semicolon st;
      B.s (Ast.Break label)
  | Token.Tkeyword "continue" ->
      advance st;
      let label = parse_opt_label st in
      semicolon st;
      B.s (Ast.Continue label)
  | Token.Tkeyword "throw" ->
      advance st;
      if nl_before st then err st "illegal newline after throw";
      let x = parse_expr st in
      semicolon st;
      B.s (Ast.Throw x)
  | Token.Tkeyword "try" -> parse_try st
  | Token.Tkeyword "switch" -> parse_switch st
  | Token.Tkeyword "debugger" ->
      advance st;
      semicolon st;
      B.s Ast.Debugger
  | Token.Tident name
    when st.idx + 1 < Array.length st.toks
         && st.toks.(st.idx + 1).tok = Token.Tpunct ":" ->
      advance st;
      advance st;
      B.s (Ast.Labeled (name, parse_stmt st))
  | _ ->
      let x = parse_expr st in
      semicolon st;
      B.s (Ast.Expr_stmt x)

and parse_opt_label st =
  match cur st with
  | Token.Tident n when not (nl_before st) ->
      advance st;
      Some n
  | _ -> None

and parse_block st : Ast.stmt list =
  expect_punct st "{";
  let body = ref [] in
  while cur st <> Token.Tpunct "}" && cur st <> Token.Teof do
    body := parse_stmt st :: !body
  done;
  expect_punct st "}";
  List.rev !body

and parse_var_kind st : Ast.var_kind =
  match cur st with
  | Token.Tkeyword "var" ->
      advance st;
      Ast.Var
  | Token.Tkeyword "let" ->
      st.opts.edition_sensitive_sink ();
      if st.opts.reject_let_const then err st "let is not supported";
      advance st;
      Ast.Let
  | Token.Tkeyword "const" ->
      st.opts.edition_sensitive_sink ();
      if st.opts.reject_let_const then err st "const is not supported";
      advance st;
      Ast.Const
  | t -> err st ("expected declaration keyword, found " ^ Token.to_string t)

and parse_decl_list st ~no_in =
  let one () =
    let name = expect_ident st in
    let init =
      if eat_punct st "=" then Some (parse_assign st ~no_in) else None
    in
    (name, init)
  in
  let decls = ref [ one () ] in
  while eat_punct st "," do
    decls := one () :: !decls
  done;
  List.rev !decls

and parse_var_stmt st =
  let kind = parse_var_kind st in
  let decls = parse_decl_list st ~no_in:false in
  (if kind = Ast.Const then
     List.iter
       (fun (n, init) ->
         if init = None then err st ("missing initializer in const declaration of " ^ n))
       decls);
  semicolon st;
  B.s (Ast.Var_decl (kind, decls))

and parse_func_decl st =
  expect_keyword st "function";
  let name = expect_ident st in
  let params, body = parse_func_rest st in
  B.s (Ast.Func_decl { Ast.fname = Some name; params; body; is_arrow = false })

and parse_func_rest st =
  expect_punct st "(";
  let params = ref [] in
  if cur st <> Token.Tpunct ")" then begin
    params := [ expect_ident st ];
    while eat_punct st "," do
      params := expect_ident st :: !params
    done
  end;
  expect_punct st ")";
  let params = List.rev !params in
  check_params st params;
  let saved_strict = st.strict in
  expect_punct st "{";
  (* function-level directive prologue: strictness applies while parsing
     the body, and the directive statement is kept in the AST so the
     evaluator can see it *)
  (match cur st with
  | Token.Tstr "use strict" -> st.strict <- true
  | _ -> ());
  let body = ref [] in
  while cur st <> Token.Tpunct "}" && cur st <> Token.Teof do
    body := parse_stmt st :: !body
  done;
  expect_punct st "}";
  st.strict <- saved_strict;
  (params, List.rev !body)

and parse_return st =
  expect_keyword st "return";
  match cur st with
  | Token.Tpunct ";" ->
      advance st;
      B.s (Ast.Return None)
  | Token.Tpunct "}" | Token.Teof -> B.s (Ast.Return None)
  | _ when nl_before st -> B.s (Ast.Return None)
  | _ ->
      let x = parse_expr st in
      semicolon st;
      B.s (Ast.Return (Some x))

and parse_if st =
  expect_keyword st "if";
  expect_punct st "(";
  let c = parse_expr st in
  expect_punct st ")";
  let t = parse_stmt st in
  let f = if eat_keyword st "else" then Some (parse_stmt st) else None in
  B.s (Ast.If (c, t, f))

and parse_while st =
  expect_keyword st "while";
  expect_punct st "(";
  let c = parse_expr st in
  expect_punct st ")";
  let body = parse_stmt st in
  B.s (Ast.While (c, body))

and parse_do_while st =
  expect_keyword st "do";
  let body = parse_stmt st in
  expect_keyword st "while";
  expect_punct st "(";
  let c = parse_expr st in
  expect_punct st ")";
  ignore (eat_punct st ";");
  B.s (Ast.Do_while (body, c))

and parse_loop_body st =
  (* The body of a for/while loop. A standard parser requires a statement;
     the [accept_for_missing_body] quirk lets the loop head stand alone
     (ChakraCore, Listing 7). *)
  match cur st with
  | Token.Teof | Token.Tpunct "}" ->
      if st.opts.accept_for_missing_body then begin
        st.opts.quirk_sink "eval-for-missing-body-accepted";
        B.s Ast.Empty
      end
      else err st "missing loop body"
  | _ -> parse_stmt st

and parse_for st =
  expect_keyword st "for";
  expect_punct st "(";
  match cur st with
  | Token.Tpunct ";" ->
      advance st;
      parse_for_classic st None
  | Token.Tkeyword ("var" | "let" | "const") -> (
      let kind = parse_var_kind st in
      let name = expect_ident st in
      match cur st with
      | Token.Tkeyword "in" ->
          advance st;
          let obj = parse_expr st in
          expect_punct st ")";
          let body = parse_loop_body st in
          B.s (Ast.For_in (Some kind, name, obj, body))
      | Token.Tkeyword "of" ->
          st.opts.edition_sensitive_sink ();
          if st.opts.reject_for_of then err st "for-of is not supported";
          advance st;
          let obj = parse_assign st ~no_in:false in
          expect_punct st ")";
          let body = parse_loop_body st in
          B.s (Ast.For_of (Some kind, name, obj, body))
      | _ ->
          let init =
            if eat_punct st "=" then Some (parse_assign st ~no_in:true)
            else None
          in
          let decls = ref [ (name, init) ] in
          while eat_punct st "," do
            let n = expect_ident st in
            let i =
              if eat_punct st "=" then Some (parse_assign st ~no_in:true)
              else None
            in
            decls := (n, i) :: !decls
          done;
          expect_punct st ";";
          parse_for_classic st (Some (Ast.FI_decl (kind, List.rev !decls))))
  | _ -> (
      (* expression init; may still be for-in/of with a bare identifier *)
      let x = parse_expr st ~no_in:true in
      match (x.Ast.e, cur st) with
      | Ast.Ident name, Token.Tkeyword "in" ->
          advance st;
          let obj = parse_expr st in
          expect_punct st ")";
          let body = parse_loop_body st in
          B.s (Ast.For_in (None, name, obj, body))
      | Ast.Ident name, Token.Tkeyword "of" ->
          st.opts.edition_sensitive_sink ();
          if st.opts.reject_for_of then err st "for-of is not supported";
          advance st;
          let obj = parse_assign st ~no_in:false in
          expect_punct st ")";
          let body = parse_loop_body st in
          B.s (Ast.For_of (None, name, obj, body))
      | _ ->
          expect_punct st ";";
          parse_for_classic st (Some (Ast.FI_expr x)))

and parse_for_classic st init =
  let cond =
    if cur st = Token.Tpunct ";" then None else Some (parse_expr st)
  in
  expect_punct st ";";
  let upd =
    if cur st = Token.Tpunct ")" then None else Some (parse_expr st)
  in
  expect_punct st ")";
  let body = parse_loop_body st in
  B.s (Ast.For (init, cond, upd, body))

and parse_try st =
  expect_keyword st "try";
  let body = parse_block st in
  let handler =
    if eat_keyword st "catch" then begin
      expect_punct st "(";
      let param = expect_ident st in
      expect_punct st ")";
      Some (param, parse_block st)
    end
    else None
  in
  let finalizer =
    if eat_keyword st "finally" then Some (parse_block st) else None
  in
  if handler = None && finalizer = None then
    err st "missing catch or finally after try";
  B.s (Ast.Try (body, handler, finalizer))

and parse_switch st =
  expect_keyword st "switch";
  expect_punct st "(";
  let d = parse_expr st in
  expect_punct st ")";
  expect_punct st "{";
  let cases = ref [] in
  let seen_default = ref false in
  while cur st <> Token.Tpunct "}" && cur st <> Token.Teof do
    let disc =
      if eat_keyword st "case" then begin
        let c = parse_expr st in
        expect_punct st ":";
        Some c
      end
      else if eat_keyword st "default" then begin
        if !seen_default then err st "multiple default clauses in switch";
        seen_default := true;
        expect_punct st ":";
        None
      end
      else err st "expected case or default in switch body"
    in
    let body = ref [] in
    while
      match cur st with
      | Token.Tkeyword ("case" | "default") | Token.Tpunct "}" | Token.Teof ->
          false
      | _ -> true
    do
      body := parse_stmt st :: !body
    done;
    cases := (disc, List.rev !body) :: !cases
  done;
  expect_punct st "}";
  B.s (Ast.Switch (d, List.rev !cases))

(* --- expressions --- *)

and parse_expr ?(no_in = false) st : Ast.expr =
  let x = parse_assign st ~no_in in
  if cur st = Token.Tpunct "," then begin
    let acc = ref x in
    while eat_punct st "," do
      acc := B.e (Ast.Seq (!acc, parse_assign st ~no_in))
    done;
    !acc
  end
  else x

and parse_assign st ~no_in : Ast.expr =
  (* arrow functions are parsed at assignment level *)
  (match cur st with
  | Token.Tpunct "(" when is_arrow_params st && arrow_ok st ->
      Some (parse_arrow st)
  | Token.Tident name
    when st.idx + 1 < Array.length st.toks
         && st.toks.(st.idx + 1).tok = Token.Tpunct "=>"
         && arrow_ok st ->
      advance st;
      advance st;
      Some (parse_arrow_body st [ name ])
  | _ -> None)
  |> function
  | Some arrow -> arrow
  | None -> (
      let lhs = parse_cond st ~no_in in
      let assign_op =
        match cur st with
        | Token.Tpunct "=" -> Some None
        | Token.Tpunct "+=" -> Some (Some Ast.Add)
        | Token.Tpunct "-=" -> Some (Some Ast.Sub)
        | Token.Tpunct "*=" -> Some (Some Ast.Mul)
        | Token.Tpunct "/=" -> Some (Some Ast.Div)
        | Token.Tpunct "%=" -> Some (Some Ast.Mod)
        | Token.Tpunct "&=" -> Some (Some Ast.BitAnd)
        | Token.Tpunct "|=" -> Some (Some Ast.BitOr)
        | Token.Tpunct "^=" -> Some (Some Ast.BitXor)
        | Token.Tpunct "**=" -> Some (Some Ast.Exp)
        | _ -> None
      in
      match assign_op with
      | None -> lhs
      | Some op ->
          (match lhs.Ast.e with
          | Ast.Ident _ | Ast.Member _ -> ()
          | _ -> err st "invalid assignment target");
          (match lhs.Ast.e with
          | Ast.Ident ("eval" | "arguments") ->
              st.opts.strict_sensitive_sink ();
              if st.strict then
                err st "assignment to eval/arguments in strict mode"
          | _ -> ());
          advance st;
          let rhs = parse_assign st ~no_in in
          B.e (Ast.Assign (op, lhs, rhs)))

and parse_arrow st : Ast.expr =
  expect_punct st "(";
  let params = ref [] in
  if cur st <> Token.Tpunct ")" then begin
    params := [ expect_ident st ];
    while eat_punct st "," do
      params := expect_ident st :: !params
    done
  end;
  expect_punct st ")";
  expect_punct st "=>";
  parse_arrow_body st (List.rev !params)

and parse_arrow_body st params =
  check_params st params;
  let body =
    if cur st = Token.Tpunct "{" then parse_block st
    else
      let x = parse_assign st ~no_in:false in
      [ B.s (Ast.Return (Some x)) ]
  in
  B.e (Ast.Arrow { Ast.fname = None; params; body; is_arrow = true })

and parse_cond st ~no_in : Ast.expr =
  let c = parse_binary st ~no_in ~min_prec:4 in
  if eat_punct st "?" then begin
    let t = parse_assign st ~no_in:false in
    expect_punct st ":";
    let f = parse_assign st ~no_in in
    B.e (Ast.Cond (c, t, f))
  end
  else c

and binop_of_token st ~no_in : (Ast.binop option * Ast.logop option) option =
  match cur st with
  | Token.Tpunct "+" -> Some (Some Ast.Add, None)
  | Token.Tpunct "-" -> Some (Some Ast.Sub, None)
  | Token.Tpunct "*" -> Some (Some Ast.Mul, None)
  | Token.Tpunct "/" -> Some (Some Ast.Div, None)
  | Token.Tpunct "%" -> Some (Some Ast.Mod, None)
  | Token.Tpunct "**" ->
      st.opts.edition_sensitive_sink ();
      if st.opts.reject_exponent_op then err st "'**' is not supported";
      Some (Some Ast.Exp, None)
  | Token.Tpunct "==" -> Some (Some Ast.Eq, None)
  | Token.Tpunct "!=" -> Some (Some Ast.Neq, None)
  | Token.Tpunct "===" -> Some (Some Ast.StrictEq, None)
  | Token.Tpunct "!==" -> Some (Some Ast.StrictNeq, None)
  | Token.Tpunct "<" -> Some (Some Ast.Lt, None)
  | Token.Tpunct ">" -> Some (Some Ast.Gt, None)
  | Token.Tpunct "<=" -> Some (Some Ast.Le, None)
  | Token.Tpunct ">=" -> Some (Some Ast.Ge, None)
  | Token.Tpunct "&" -> Some (Some Ast.BitAnd, None)
  | Token.Tpunct "|" -> Some (Some Ast.BitOr, None)
  | Token.Tpunct "^" -> Some (Some Ast.BitXor, None)
  | Token.Tpunct "<<" -> Some (Some Ast.Shl, None)
  | Token.Tpunct ">>" -> Some (Some Ast.Shr, None)
  | Token.Tpunct ">>>" -> Some (Some Ast.Ushr, None)
  | Token.Tkeyword "instanceof" -> Some (Some Ast.Instanceof, None)
  | Token.Tkeyword "in" when not no_in -> Some (Some Ast.In, None)
  | Token.Tpunct "&&" -> Some (None, Some Ast.And)
  | Token.Tpunct "||" -> Some (None, Some Ast.Or)
  | _ -> None

and parse_binary st ~no_in ~min_prec : Ast.expr =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match binop_of_token st ~no_in with
    | Some (Some op, None) when Ast.binop_prec op >= min_prec ->
        advance st;
        let next_min =
          if op = Ast.Exp then Ast.binop_prec op else Ast.binop_prec op + 1
        in
        let rhs = parse_binary st ~no_in ~min_prec:next_min in
        lhs := B.e (Ast.Binary (op, !lhs, rhs))
    | Some (None, Some op) when Ast.logop_prec op >= min_prec ->
        advance st;
        let rhs = parse_binary st ~no_in ~min_prec:(Ast.logop_prec op + 1) in
        lhs := B.e (Ast.Logical (op, !lhs, rhs))
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary st : Ast.expr =
  match cur st with
  | Token.Tpunct "-" ->
      advance st;
      B.e (Ast.Unary (Ast.Uneg, parse_unary st))
  | Token.Tpunct "+" ->
      advance st;
      B.e (Ast.Unary (Ast.Uplus, parse_unary st))
  | Token.Tpunct "!" ->
      advance st;
      B.e (Ast.Unary (Ast.Unot, parse_unary st))
  | Token.Tpunct "~" ->
      advance st;
      B.e (Ast.Unary (Ast.Ubnot, parse_unary st))
  | Token.Tkeyword "typeof" ->
      advance st;
      B.e (Ast.Unary (Ast.Utypeof, parse_unary st))
  | Token.Tkeyword "void" ->
      advance st;
      B.e (Ast.Unary (Ast.Uvoid, parse_unary st))
  | Token.Tkeyword "delete" ->
      advance st;
      let x = parse_unary st in
      (match x.Ast.e with
      | Ast.Ident _ ->
          st.opts.strict_sensitive_sink ();
          if st.strict then
            if st.opts.accept_strict_delete_unqualified then
              st.opts.quirk_sink "strict-delete-unqualified-accepted"
            else err st "delete of an unqualified identifier in strict mode"
      | _ -> ());
      B.e (Ast.Unary (Ast.Udelete, x))
  | Token.Tpunct "++" ->
      advance st;
      B.e (Ast.Update (Ast.Incr, true, parse_unary st))
  | Token.Tpunct "--" ->
      advance st;
      B.e (Ast.Update (Ast.Decr, true, parse_unary st))
  | _ -> parse_postfix st

and parse_postfix st : Ast.expr =
  let x = parse_call_member st in
  match cur st with
  | Token.Tpunct "++" when not (nl_before st) ->
      advance st;
      B.e (Ast.Update (Ast.Incr, false, x))
  | Token.Tpunct "--" when not (nl_before st) ->
      advance st;
      B.e (Ast.Update (Ast.Decr, false, x))
  | _ -> x

and parse_call_member st : Ast.expr =
  let base =
    if cur st = Token.Tkeyword "new" then parse_new st else parse_primary st
  in
  parse_call_tail st base

and parse_new st : Ast.expr =
  expect_keyword st "new";
  let callee =
    if cur st = Token.Tkeyword "new" then parse_new st
    else
      let p = parse_primary st in
      parse_member_tail st p
  in
  let args = if cur st = Token.Tpunct "(" then parse_args st else [] in
  B.e (Ast.New (callee, args))

and parse_member_tail st base : Ast.expr =
  match cur st with
  | Token.Tpunct "." ->
      advance st;
      let name =
        match cur st with
        | Token.Tident n ->
            advance st;
            n
        | Token.Tkeyword n ->
            (* property names may be keywords: [x.in], [x.delete] *)
            advance st;
            n
        | t -> err st ("expected property name, found " ^ Token.to_string t)
      in
      parse_member_tail st (B.e (Ast.Member (base, Ast.Pfield name)))
  | Token.Tpunct "[" ->
      advance st;
      let i = parse_expr st in
      expect_punct st "]";
      parse_member_tail st (B.e (Ast.Member (base, Ast.Pindex i)))
  | _ -> base

and parse_call_tail st base : Ast.expr =
  match cur st with
  | Token.Tpunct "." | Token.Tpunct "[" ->
      parse_call_tail st (parse_member_tail st base)
  | Token.Tpunct "(" ->
      let args = parse_args st in
      parse_call_tail st (B.e (Ast.Call (base, args)))
  | _ -> base

and parse_args st : Ast.expr list =
  expect_punct st "(";
  let args = ref [] in
  if cur st <> Token.Tpunct ")" then begin
    args := [ parse_assign st ~no_in:false ];
    while eat_punct st "," do
      args := parse_assign st ~no_in:false :: !args
    done
  end;
  expect_punct st ")";
  List.rev !args

and parse_primary st : Ast.expr =
  match cur st with
  | Token.Tnum f ->
      advance st;
      B.e (Ast.Lit (Ast.Lnum f))
  | Token.Tstr s ->
      advance st;
      B.e (Ast.Lit (Ast.Lstr s))
  | Token.Tregexp (body, flags) ->
      if String.contains flags 'y' then begin
        st.opts.edition_sensitive_sink ();
        if st.opts.reject_regexp_sticky then
          err st "regexp sticky flag is not supported"
      end;
      advance st;
      B.e (Ast.Lit (Ast.Lregexp (body, flags)))
  | Token.Ttemplate parts ->
      st.opts.edition_sensitive_sink ();
      if st.opts.reject_template_literals then
        err st "template literals are not supported";
      advance st;
      parse_template st parts
  | Token.Tkeyword "null" ->
      advance st;
      B.e (Ast.Lit Ast.Lnull)
  | Token.Tkeyword "true" ->
      advance st;
      B.e (Ast.Lit (Ast.Lbool true))
  | Token.Tkeyword "false" ->
      advance st;
      B.e (Ast.Lit (Ast.Lbool false))
  | Token.Tkeyword "this" ->
      advance st;
      B.e Ast.This
  | Token.Tkeyword "function" ->
      advance st;
      let name =
        match cur st with
        | Token.Tident n ->
            advance st;
            Some n
        | _ -> None
      in
      let params, body = parse_func_rest st in
      B.e (Ast.Func { Ast.fname = name; params; body; is_arrow = false })
  | Token.Tident n ->
      advance st;
      B.e (Ast.Ident n)
  | Token.Tkeyword "of" ->
      advance st;
      B.e (Ast.Ident "of")
  | Token.Tpunct "(" ->
      advance st;
      let x = parse_expr st in
      expect_punct st ")";
      x
  | Token.Tpunct "[" -> parse_array st
  | Token.Tpunct "{" -> parse_object st
  | t -> err st ("unexpected " ^ Token.to_string t)

and parse_template st parts : Ast.expr =
  let conv = function
    | Token.Pstr s -> Ast.Tstr s
    | Token.Psub toks ->
        (* substitution token lists are re-parsed as expressions *)
        let sub_toks =
          List.map
            (fun t -> { Lexer.tok = t; line = cur_line st; newline_before = false })
            (toks @ [ Token.Teof ])
        in
        let sub_st =
          { toks = Array.of_list sub_toks; idx = 0; opts = st.opts; strict = st.strict }
        in
        let x = parse_expr sub_st in
        if cur sub_st <> Token.Teof then
          err st "trailing tokens in template substitution";
        Ast.Tsub x
  in
  B.e (Ast.Template (List.map conv parts))

and parse_array st : Ast.expr =
  expect_punct st "[";
  let elems = ref [] in
  let rec loop () =
    match cur st with
    | Token.Tpunct "]" -> advance st
    | Token.Tpunct "," ->
        advance st;
        elems := None :: !elems;
        loop ()
    | _ ->
        let x = parse_assign st ~no_in:false in
        elems := Some x :: !elems;
        if eat_punct st "," then loop ()
        else expect_punct st "]"
  in
  loop ();
  B.e (Ast.Array_lit (List.rev !elems))

and parse_object st : Ast.expr =
  expect_punct st "{";
  let props = ref [] in
  let rec loop () =
    match cur st with
    | Token.Tpunct "}" -> advance st
    | _ ->
        let pn =
          match cur st with
          | Token.Tident n ->
              advance st;
              Ast.PN_ident n
          | Token.Tkeyword n ->
              advance st;
              Ast.PN_ident n
          | Token.Tstr s ->
              advance st;
              Ast.PN_str s
          | Token.Tnum f ->
              advance st;
              Ast.PN_num f
          | Token.Tpunct "[" ->
              advance st;
              let x = parse_assign st ~no_in:false in
              expect_punct st "]";
              Ast.PN_computed x
          | t -> err st ("expected property name, found " ^ Token.to_string t)
        in
        let v =
          if eat_punct st ":" then parse_assign st ~no_in:false
          else
            (* shorthand { a } *)
            match pn with
            | Ast.PN_ident n -> B.e (Ast.Ident n)
            | _ -> err st "expected ':' in object literal"
        in
        props := (pn, v) :: !props;
        if eat_punct st "," then loop () else expect_punct st "}"
  in
  loop ();
  B.e (Ast.Object_lit (List.rev !props))

(* JSHint substitute: syntactic validity under the standard front end. *)
let check_syntax (src : string) : (Ast.program, string * int) result =
  match parse_program ~opts:default_options src with
  | p -> Ok p
  | exception Syntax_error (msg, line) -> Error (msg, line)

let is_valid src = Result.is_ok (check_syntax src)
