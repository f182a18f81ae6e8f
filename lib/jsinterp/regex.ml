(* Miniature JavaScript regular-expression engine.

   A backtracking matcher over a small AST, supporting the constructs the
   test corpus uses: literals, [.], character classes with ranges and
   negation, the escapes [\d \D \w \W \s \S \n \t \r \b(class only)],
   anchors [^ $], alternation, capturing and non-capturing groups, and the
   quantifiers [* + ? {m} {m,} {m,n}] with lazy variants.

   JS regex semantics differ from POSIX/[Re] in backtracking order and
   capture reset rules, which is why this is hand-built rather than mapped
   onto the [re] library. The engine-deviation knobs ([semantics]) let a
   simulated engine's regex component misbehave (Fig. 7's "Regex Engine"
   bug class). *)

type node =
  | Char of char
  | Any                                  (* . *)
  | Class of bool * (char * char) list   (* negated?, ranges *)
  | Start                                (* ^ *)
  | End                                  (* $ *)
  | Group of int option * node list      (* capture index or None *)
  | Alt of node list list
  | Repeat of node * int * int option * bool  (* node, min, max, greedy *)

type prog = {
  nodes : node list;
  ngroups : int;
  flag_g : bool;
  flag_i : bool;
  flag_m : bool;
}

(* Deviation knobs consulted at match time. *)
type semantics = {
  dot_matches_newline : bool;   (* quirk: [.] matches '\n' without /s *)
  ignorecase_broken : bool;     (* quirk: /i treated as case-sensitive *)
  class_negation_broken : bool; (* quirk: [^...] behaves as [...] *)
}

let standard_semantics =
  { dot_matches_newline = false; ignorecase_broken = false; class_negation_broken = false }

exception Parse_error of string

(* --- pattern parser --- *)

type pstate = { src : string; mutable pos : int; mutable ngroups : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None
let advance st = st.pos <- st.pos + 1

let digit_ranges = [ ('0', '9') ]
let word_ranges = [ ('a', 'z'); ('A', 'Z'); ('0', '9'); ('_', '_') ]
let space_ranges =
  [ (' ', ' '); ('\t', '\t'); ('\n', '\n'); ('\r', '\r'); ('\x0b', '\x0c') ]

let parse_escape st : node =
  match peek st with
  | None -> raise (Parse_error "trailing backslash")
  | Some c ->
      advance st;
      (match c with
      | 'd' -> Class (false, digit_ranges)
      | 'D' -> Class (true, digit_ranges)
      | 'w' -> Class (false, word_ranges)
      | 'W' -> Class (true, word_ranges)
      | 's' -> Class (false, space_ranges)
      | 'S' -> Class (true, space_ranges)
      | 'n' -> Char '\n'
      | 't' -> Char '\t'
      | 'r' -> Char '\r'
      | 'f' -> Char '\x0c'
      | 'v' -> Char '\x0b'
      | '0' -> Char '\x00'
      | 'x' ->
          if st.pos + 2 > String.length st.src then
            raise (Parse_error "bad \\x escape");
          let hex = String.sub st.src st.pos 2 in
          st.pos <- st.pos + 2;
          (match int_of_string_opt ("0x" ^ hex) with
          | Some v -> Char (Char.chr (v land 0xff))
          | None -> raise (Parse_error "bad \\x escape"))
      | c -> Char c)

let parse_class st : node =
  (* '[' already consumed *)
  let negated = peek st = Some '^' in
  if negated then advance st;
  let ranges = ref [] in
  let rec loop () =
    match peek st with
    | None -> raise (Parse_error "unterminated character class")
    | Some ']' -> advance st
    | Some '\\' ->
        advance st;
        (match parse_escape st with
        | Char c -> push_range c
        | Class (false, rs) ->
            ranges := rs @ !ranges;
            loop ()
        | Class (true, _) ->
            (* negated shorthand inside a class: approximate with full range
               minus nothing (rare in corpus); accept as any-char *)
            ranges := [ ('\x00', '\xff') ] @ !ranges;
            loop ()
        | _ -> raise (Parse_error "bad escape in class"))
    | Some c ->
        advance st;
        push_range c
  and push_range lo =
    match (peek st, st.pos + 1 < String.length st.src) with
    | Some '-', true when st.src.[st.pos + 1] <> ']' ->
        advance st;
        (match peek st with
        | Some '\\' ->
            advance st;
            (match parse_escape st with
            | Char hi ->
                ranges := (lo, hi) :: !ranges;
                loop ()
            | _ -> raise (Parse_error "bad range bound"))
        | Some hi ->
            advance st;
            if hi < lo then raise (Parse_error "range out of order");
            ranges := (lo, hi) :: !ranges;
            loop ()
        | None -> raise (Parse_error "unterminated class"))
    | _ ->
        ranges := (lo, lo) :: !ranges;
        loop ()
  in
  loop ();
  Class (negated, List.rev !ranges)

let rec parse_alt st : node =
  let first = parse_seq st in
  if peek st = Some '|' then begin
    let alts = ref [ first ] in
    while peek st = Some '|' do
      advance st;
      alts := parse_seq st :: !alts
    done;
    Alt (List.rev !alts)
  end
  else Alt [ first ]

and parse_seq st : node list =
  let items = ref [] in
  let rec loop () =
    match peek st with
    | None | Some '|' | Some ')' -> ()
    | Some _ ->
        items := parse_quantified st :: !items;
        loop ()
  in
  loop ();
  List.rev !items

and parse_quantified st : node =
  let atom = parse_atom st in
  let quant =
    match peek st with
    | Some '*' ->
        advance st;
        Some (0, None)
    | Some '+' ->
        advance st;
        Some (1, None)
    | Some '?' ->
        advance st;
        Some (0, Some 1)
    | Some '{' -> (
        (* try {m}, {m,}, {m,n}; otherwise literal '{' was the atom *)
        let save = st.pos in
        advance st;
        let num () =
          let start = st.pos in
          while (match peek st with Some ('0' .. '9') -> true | _ -> false) do
            advance st
          done;
          if st.pos = start then None
          else Some (int_of_string (String.sub st.src start (st.pos - start)))
        in
        match num () with
        | None ->
            st.pos <- save;
            None
        | Some m -> (
            match peek st with
            | Some '}' ->
                advance st;
                Some (m, Some m)
            | Some ',' -> (
                advance st;
                match (num (), peek st) with
                | None, Some '}' ->
                    advance st;
                    Some (m, None)
                | Some n, Some '}' ->
                    advance st;
                    if n < m then raise (Parse_error "bad repetition range");
                    Some (m, Some n)
                | _ ->
                    st.pos <- save;
                    None)
            | _ ->
                st.pos <- save;
                None))
    | _ -> None
  in
  match quant with
  | None -> atom
  | Some (min, max) ->
      (match atom with
      | Start | End -> raise (Parse_error "nothing to repeat")
      | _ -> ());
      let greedy =
        if peek st = Some '?' then (
          advance st;
          false)
        else true
      in
      Repeat (atom, min, max, greedy)

and parse_atom st : node =
  match peek st with
  | None -> raise (Parse_error "unexpected end of pattern")
  | Some '(' ->
      advance st;
      let capture =
        if
          st.pos + 1 < String.length st.src
          && st.src.[st.pos] = '?'
          && st.src.[st.pos + 1] = ':'
        then begin
          st.pos <- st.pos + 2;
          None
        end
        else begin
          st.ngroups <- st.ngroups + 1;
          Some st.ngroups
        end
      in
      let inner = parse_alt st in
      if peek st <> Some ')' then raise (Parse_error "unterminated group");
      advance st;
      Group (capture, [ inner ])
  | Some ')' -> raise (Parse_error "unmatched ')'")
  | Some '[' ->
      advance st;
      parse_class st
  | Some '.' ->
      advance st;
      Any
  | Some '^' ->
      advance st;
      Start
  | Some '$' ->
      advance st;
      End
  | Some '\\' ->
      advance st;
      parse_escape st
  | Some ('*' | '+' | '?') -> raise (Parse_error "nothing to repeat")
  | Some c ->
      advance st;
      Char c

let compile (pattern : string) (flags : string) : prog =
  let st = { src = pattern; pos = 0; ngroups = 0 } in
  let node = parse_alt st in
  if st.pos <> String.length pattern then
    raise (Parse_error "trailing characters in pattern");
  String.iter
    (fun c ->
      if not (String.contains "gimsuy" c) then
        raise (Parse_error (Printf.sprintf "unknown flag %c" c)))
    flags;
  {
    nodes = [ node ];
    ngroups = st.ngroups;
    flag_g = String.contains flags 'g';
    flag_i = String.contains flags 'i';
    flag_m = String.contains flags 'm';
  }

(* --- matcher --- *)

type match_result = {
  m_start : int;
  m_end : int;
  m_groups : (int * int) option array;  (* 1-based capture index - 1 *)
}

let lower c = if c >= 'A' && c <= 'Z' then Char.chr (Char.code c + 32) else c

(* Backtracking via CPS: [mtch node input pos groups k] succeeds if the node
   matches at [pos] and the continuation accepts the resulting position. *)
let exec ?(sem = standard_semantics) (p : prog) (input : string) (start : int) :
    match_result option =
  let n = String.length input in
  let fold_case = p.flag_i && not sem.ignorecase_broken in
  let char_eq a b = if fold_case then lower a = lower b else a = b
  in
  let in_ranges c ranges =
    List.exists
      (fun (lo, hi) ->
        (c >= lo && c <= hi)
        || (fold_case && lower c >= lower lo && lower c <= lower hi))
      ranges
  in
  let groups = Array.make (max p.ngroups 1) None in
  let rec match_node node pos (k : int -> bool) : bool =
    match node with
    | Char c -> pos < n && char_eq input.[pos] c && k (pos + 1)
    | Any ->
        pos < n
        && (sem.dot_matches_newline || input.[pos] <> '\n')
        && k (pos + 1)
    | Class (negated, ranges) ->
        let negated = if sem.class_negation_broken then false else negated in
        pos < n
        && in_ranges input.[pos] ranges <> negated
        && k (pos + 1)
    | Start ->
        (pos = 0 || (p.flag_m && input.[pos - 1] = '\n')) && k pos
    | End -> (pos = n || (p.flag_m && input.[pos] = '\n')) && k pos
    | Group (cap, inner) -> (
        match cap with
        | None -> match_seq inner pos k
        | Some g ->
            let saved = groups.(g - 1) in
            match_seq inner pos (fun pos' ->
                groups.(g - 1) <- Some (pos, pos');
                k pos' || (groups.(g - 1) <- saved; false)))
    | Alt alts ->
        List.exists (fun seq -> match_seq seq pos k) alts
    | Repeat (inner, rmin, rmax, greedy) ->
        let maxr = match rmax with Some m -> m | None -> max_int in
        (* [go count pos] tries to satisfy the remaining repetitions. The
           zero-width-progress check prevents infinite loops on patterns
           like (a?)* . *)
        let rec go count pos =
          if count >= rmin && ((not greedy) && k pos) then true
          else if count < maxr then
            let stepped =
              match_node inner pos (fun pos' ->
                  if pos' = pos && count >= rmin then false
                  else go (count + 1) pos')
            in
            if stepped then true else count >= rmin && greedy && k pos
          else count >= rmin && k pos
        in
        go 0 pos
  and match_seq seq pos k : bool =
    match seq with
    | [] -> k pos
    | node :: rest -> match_node node pos (fun pos' -> match_seq rest pos' k)
  in
  let try_at pos =
    Array.fill groups 0 (Array.length groups) None;
    let final = ref (-1) in
    if
      match_seq p.nodes pos (fun e ->
          final := e;
          true)
    then
      Some
        {
          m_start = pos;
          m_end = !final;
          m_groups = Array.sub groups 0 p.ngroups;
        }
    else None
  in
  let rec scan pos =
    if pos > n then None
    else match try_at pos with Some r -> Some r | None -> scan (pos + 1)
  in
  scan (max start 0)
