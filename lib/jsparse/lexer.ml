(* Hand-written lexer for the JavaScript subset.

   Produces the whole token stream up front (generated test programs are
   small, a few KB at most). Each token records whether a line terminator
   preceded it, which the parser needs for automatic semicolon insertion and
   the restricted productions (return/throw/break/continue).

   Regular-expression literals are disambiguated from division with the
   usual heuristic on the previous significant token.

   The scanner is index-based: it reads bytes with [String.unsafe_get]
   behind explicit bounds checks and allocates only what a token carries.
   Keywords and reserved words are one string [match]; punctuators dispatch
   on their first character and are constant tokens. Every line terminator
   consumed, inside a token or between tokens, bumps the line and marks the
   next token as preceded by a newline. The token stream, lines, newline
   bits and error messages are frozen by the golden token-stream test. *)

exception Error of string * int (* message, line *)

type lexed = {
  tok : Token.t;
  line : int;
  newline_before : bool;
}

type state = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable nl_pending : bool;
  mutable regexp_ok : bool; (* may a '/' here start a regexp literal? *)
}

let error st msg = raise (Error (msg, st.line))

(* The byte at [i], or NUL past the end. NUL is no token's byte, so
   callers that only classify bytes need no separate end test. *)
let[@inline] at st i = if i < st.len then String.unsafe_get st.src i else '\000'

let[@inline] newline st =
  st.line <- st.line + 1;
  st.nl_pending <- true

let is_ident_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '$' -> true
  | _ -> false

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

let hex_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* First index at or after [i] whose byte fails [p]; [p] must reject
   NUL, which also stands for the end of input. *)
let[@inline] scan_while st p i =
  let j = ref i in
  while p (at st !j) do
    incr j
  done;
  !j

let skip_trivia st =
  let src = st.src and len = st.len in
  let rec block_comment j =
    if j + 1 < len && String.unsafe_get src j = '*'
       && String.unsafe_get src (j + 1) = '/'
    then j + 2
    else if j >= len then error st "unterminated block comment"
    else (
      if String.unsafe_get src j = '\n' then newline st;
      block_comment (j + 1))
  in
  let rec line_end j =
    if j < len && String.unsafe_get src j <> '\n' then line_end (j + 1) else j
  in
  let rec go i =
    if i >= len then i
    else
      match String.unsafe_get src i with
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '\n' ->
          newline st;
          go (i + 1)
      | '/' when i + 1 < len -> (
          match String.unsafe_get src (i + 1) with
          | '/' -> go (line_end (i + 2))
          | '*' -> go (block_comment (i + 2))
          | _ -> i)
      | _ -> i
  in
  st.pos <- go st.pos

let word_token st word : Token.t =
  match word with
  | "var" | "let" | "const" | "function" | "return" | "if" | "else" | "for"
  | "while" | "do" | "break" | "continue" | "new" | "delete" | "typeof"
  | "instanceof" | "in" | "of" | "void" | "this" | "null" | "true" | "false"
  | "throw" | "try" | "catch" | "finally" | "switch" | "case" | "default"
  | "debugger" ->
      Token.Tkeyword word
  (* words reserved by ECMA-262 that this subset does not implement; using
     one as an identifier is still a syntax error *)
  | "class" | "extends" | "super" | "import" | "export" | "yield" | "enum"
  | "with" ->
      error st ("reserved word used as identifier: " ^ word)
  | _ -> Token.Tident word

let lex_number st =
  let src = st.src and i = st.pos in
  if at st i = '0' && (match at st (i + 1) with 'x' | 'X' -> true | _ -> false)
  then begin
    let j = scan_while st (fun c -> hex_value c >= 0) (i + 2) in
    st.pos <- j;
    if j = i + 2 then error st "invalid hex literal";
    (* correctly rounded, like the MV of ECMA-262 11.8.3 *)
    float_of_string (String.sub src i (j - i))
  end
  else begin
    let int_end = scan_while st is_digit i in
    let j =
      if at st int_end = '.' then scan_while st is_digit (int_end + 1) else int_end
    in
    let j =
      match at st j with
      | 'e' | 'E' ->
          let k = match at st (j + 1) with '+' | '-' -> j + 2 | _ -> j + 1 in
          if not (is_digit (at st k)) then error st "missing exponent digits";
          scan_while st is_digit k
      | _ -> j
    in
    st.pos <- j;
    (* ECMA-262 11.8.3: the character immediately following a NumericLiteral
       must not be an IdentifierStart — [3in], [1abc] are syntax errors *)
    let c = at st j in
    if is_ident_start c then
      error st (Printf.sprintf "identifier starts immediately after number (%c)" c);
    let text = String.sub src i (j - i) in
    match float_of_string_opt text with
    | Some f -> f
    | None -> error st ("bad number literal " ^ text)
  end

(* Value of the [n] escape digits at [i], or -1. The first must be a hex
   digit; later ones may also be '_', which is skipped. *)
let escape_value src i n =
  let first = hex_value (String.unsafe_get src i) in
  if first < 0 then -1
  else begin
    let v = ref first in
    for k = i + 1 to i + n - 1 do
      match String.unsafe_get src k with
      | '_' -> ()
      | c ->
          let d = hex_value c in
          v := if d < 0 || !v < 0 then -1 else (!v * 16) + d
    done;
    !v
  end

(* Slow path of [lex_string]: the literal holds an escape. [j] is the
   index of the first byte not yet copied to [buf]. *)
let rec string_escapes st quote buf j =
  let src = st.src and len = st.len in
  if j >= len then error st "unterminated string literal";
  match String.unsafe_get src j with
  | '\n' -> error st "newline in string literal"
  | c when c = quote -> j + 1
  | '\\' -> (
      let j = j + 1 in
      if j >= len then error st "unterminated escape";
      let simple c =
        Buffer.add_char buf c;
        string_escapes st quote buf (j + 1)
      in
      match String.unsafe_get src j with
      | 'n' -> simple '\n'
      | 't' -> simple '\t'
      | 'r' -> simple '\r'
      | 'b' -> simple '\b'
      | '0' -> simple '\x00'
      | 'x' ->
          let j = j + 1 in
          if j + 1 >= len then error st "bad \\x escape";
          if String.unsafe_get src j = '\n' then newline st;
          if String.unsafe_get src (j + 1) = '\n' then newline st;
          let code = escape_value src j 2 in
          if code < 0 then error st "bad \\x escape";
          Buffer.add_char buf (Char.chr code);
          string_escapes st quote buf (j + 2)
      | 'u' ->
          (* keep BMP escapes as UTF-8-ish bytes; good enough for the
             generated corpus which stays in ASCII *)
          let j = j + 1 in
          if j + 4 > len then error st "bad \\u escape";
          let v = escape_value src j 4 in
          if v < 0 then error st "bad \\u escape";
          if v < 128 then Buffer.add_char buf (Char.chr v)
          else Buffer.add_string buf (Printf.sprintf "\\u%04x" v);
          string_escapes st quote buf (j + 4)
      | c ->
          if c = '\n' then newline st;
          simple c)
  | c ->
      Buffer.add_char buf c;
      string_escapes st quote buf (j + 1)

let lex_string st quote =
  let src = st.src and len = st.len and start = st.pos + 1 in
  let rec plain j =
    if j < len then
      match String.unsafe_get src j with
      | '\\' | '\n' -> j
      | c -> if c = quote then j else plain (j + 1)
    else j
  in
  let j = plain start in
  if j < len && String.unsafe_get src j = quote then begin
    st.pos <- j + 1;
    String.sub src start (j - start)
  end
  else begin
    let buf = Buffer.create (j - start + 16) in
    Buffer.add_substring buf src start (j - start);
    st.pos <- string_escapes st quote buf j;
    Buffer.contents buf
  end

(* The body is the source text between the slashes, escapes included. *)
let lex_regexp st =
  let src = st.src and len = st.len and start = st.pos + 1 in
  let rec body j in_class =
    if j >= len then error st "unterminated regexp literal";
    match String.unsafe_get src j with
    | '\n' -> error st "unterminated regexp literal"
    | '\\' ->
        if j + 1 >= len then error st "unterminated regexp literal";
        if String.unsafe_get src (j + 1) = '\n' then newline st;
        body (j + 2) in_class
    | '[' -> body (j + 1) true
    | ']' when in_class -> body (j + 1) false
    | '/' when not in_class -> j
    | _ -> body (j + 1) in_class
  in
  let close = body start false in
  let fend = scan_while st is_ident_char (close + 1) in
  for k = close + 1 to fend - 1 do
    match String.unsafe_get src k with
    | 'g' | 'i' | 'm' | 's' | 'u' | 'y' -> ()
    | c -> error st (Printf.sprintf "invalid regexp flag %c" c)
  done;
  st.pos <- fend;
  Token.Tregexp
    ( String.sub src start (close - start),
      String.sub src (close + 1) (fend - close - 1) )

(* May a '/' after this token start a regexp literal (vs. division)? *)
let regexp_allowed (tok : Token.t) =
  match tok with
  | Tpunct (")" | "]") -> false
  | Tpunct _ -> true
  | Tkeyword ("this" | "null" | "true" | "false") -> false
  | Tkeyword _ -> true
  | Tnum _ | Tstr _ | Ttemplate _ | Tregexp _ | Tident _ | Teof -> false

(* Longest match, dispatched on the first byte; every result is a
   constant. *)
let lex_punct st : Token.t =
  let i = st.pos in
  let c1 = at st (i + 1) and c2 = at st (i + 2) in
  let tok, n =
    match String.unsafe_get st.src i with
    | '=' ->
        if c1 = '=' then if c2 = '=' then (Token.Tpunct "===", 3) else (Tpunct "==", 2)
        else if c1 = '>' then (Tpunct "=>", 2)
        else (Tpunct "=", 1)
    | '!' ->
        if c1 = '=' then if c2 = '=' then (Tpunct "!==", 3) else (Tpunct "!=", 2)
        else (Tpunct "!", 1)
    | '>' ->
        if c1 = '>' then if c2 = '>' then (Tpunct ">>>", 3) else (Tpunct ">>", 2)
        else if c1 = '=' then (Tpunct ">=", 2)
        else (Tpunct ">", 1)
    | '<' ->
        if c1 = '=' then (Tpunct "<=", 2)
        else if c1 = '<' then (Tpunct "<<", 2)
        else (Tpunct "<", 1)
    | '*' ->
        if c1 = '*' then if c2 = '=' then (Tpunct "**=", 3) else (Tpunct "**", 2)
        else if c1 = '=' then (Tpunct "*=", 2)
        else (Tpunct "*", 1)
    | '&' ->
        if c1 = '&' then (Tpunct "&&", 2)
        else if c1 = '=' then (Tpunct "&=", 2)
        else (Tpunct "&", 1)
    | '|' ->
        if c1 = '|' then (Tpunct "||", 2)
        else if c1 = '=' then (Tpunct "|=", 2)
        else (Tpunct "|", 1)
    | '+' ->
        if c1 = '+' then (Tpunct "++", 2)
        else if c1 = '=' then (Tpunct "+=", 2)
        else (Tpunct "+", 1)
    | '-' ->
        if c1 = '-' then (Tpunct "--", 2)
        else if c1 = '=' then (Tpunct "-=", 2)
        else (Tpunct "-", 1)
    | '/' -> if c1 = '=' then (Tpunct "/=", 2) else (Tpunct "/", 1)
    | '%' -> if c1 = '=' then (Tpunct "%=", 2) else (Tpunct "%", 1)
    | '^' -> if c1 = '=' then (Tpunct "^=", 2) else (Tpunct "^", 1)
    | '~' -> (Tpunct "~", 1)
    | '?' -> (Tpunct "?", 1)
    | ':' -> (Tpunct ":", 1)
    | ';' -> (Tpunct ";", 1)
    | ',' -> (Tpunct ",", 1)
    | '.' -> (Tpunct ".", 1)
    | '(' -> (Tpunct "(", 1)
    | ')' -> (Tpunct ")", 1)
    | '{' -> (Tpunct "{", 1)
    | '}' -> (Tpunct "}", 1)
    | '[' -> (Tpunct "[", 1)
    | ']' -> (Tpunct "]", 1)
    | c -> error st (Printf.sprintf "unexpected character %C" c)
  in
  st.pos <- i + n;
  tok

(* The token at [st.pos], which is past any trivia. *)
let rec lex_token st : Token.t =
  let i = st.pos in
  if i >= st.len then Token.Teof
  else
    match String.unsafe_get st.src i with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | '$' ->
        let j = scan_while st is_ident_char (i + 1) in
        st.pos <- j;
        word_token st (String.sub st.src i (j - i))
    | '0' .. '9' -> Token.Tnum (lex_number st)
    | '.' when is_digit (at st (i + 1)) -> Token.Tnum (lex_number st)
    | ('"' | '\'') as q -> Token.Tstr (lex_string st q)
    | '`' -> lex_template st
    | '/' when st.regexp_ok -> lex_regexp st
    | _ -> lex_punct st

and lex_template st : Token.t =
  let src = st.src and len = st.len in
  let parts = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then (
      parts := Token.Pstr (Buffer.contents buf) :: !parts;
      Buffer.clear buf)
  in
  (* copy the byte at [j], or what its escape stands for, and go on *)
  let rec copy j c =
    if String.unsafe_get src j = '\n' then newline st;
    Buffer.add_char buf c;
    loop (j + 1)
  and loop j =
    if j >= len then error st "unterminated template literal";
    match String.unsafe_get src j with
    | '`' -> st.pos <- j + 1
    | '\\' -> (
        if j + 1 >= len then error st "unterminated template literal";
        match String.unsafe_get src (j + 1) with
        | 'n' -> copy (j + 1) '\n'
        | 't' -> copy (j + 1) '\t'
        | c -> copy (j + 1) c)
    | '$' when at st (j + 1) = '{' ->
        flush ();
        st.pos <- j + 2;
        parts := Token.Psub (substitution st) :: !parts;
        loop st.pos
    | c -> copy j c
  in
  loop (st.pos + 1);
  flush ();
  Token.Ttemplate (List.rev !parts)

(* Lex a template substitution up to its matching '}'. *)
and substitution st =
  let toks = ref [] and depth = ref 0 in
  let rec sub () =
    skip_trivia st;
    if st.pos >= st.len then error st "unterminated template substitution";
    if !depth = 0 && String.unsafe_get st.src st.pos = '}' then
      st.pos <- st.pos + 1
    else begin
      let t = lex_token st in
      (match t with
      | Token.Tpunct "{" -> incr depth
      | Token.Tpunct "}" -> decr depth
      | _ -> ());
      st.regexp_ok <- regexp_allowed t;
      toks := t :: !toks;
      sub ()
    end
  in
  sub ();
  List.rev !toks

let no_token = { tok = Token.Teof; line = 0; newline_before = false }

(* Tokenize the full input. Raises {!Error} on lexical errors. *)
let tokenize (src : string) : lexed array =
  let len = String.length src in
  let st = { src; len; pos = 0; line = 1; nl_pending = false; regexp_ok = true } in
  (* about one token per three bytes of generated code *)
  let toks = ref (Array.make ((len / 3) + 8) no_token) in
  let rec loop n =
    skip_trivia st;
    let newline_before = st.nl_pending in
    st.nl_pending <- false;
    let line = st.line in
    let tok = lex_token st in
    st.regexp_ok <- regexp_allowed tok;
    if n = Array.length !toks then begin
      let grown = Array.make (2 * n) no_token in
      Array.blit !toks 0 grown 0 n;
      toks := grown
    end;
    Array.unsafe_set !toks n { tok; line; newline_before };
    match tok with Token.Teof -> n + 1 | _ -> loop (n + 1)
  in
  let n = loop 0 in
  Array.sub !toks 0 n
