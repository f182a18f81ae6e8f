(* Lexer, parser, printer: acceptance, rejection, ASI, engine front-end
   options, and a QCheck print/parse round-trip over random ASTs. *)

open Helpers
module Ast = Jsast.Ast
module B = Jsast.Builder
module P = Jsparse.Parser

let parses src =
  match P.parse_program src with
  | _ -> true
  | exception P.Syntax_error _ -> false

let accepted =
  [
    "var x = 1;";
    "let y = 2; const z = 3;";
    "function f(a, b) { return a + b; }";
    "var f = function() {};";
    "var f = (a) => a + 1;";
    "var f = x => x;";
    "if (a) b(); else c();";
    "for (var i = 0; i < 10; i++) work();";
    "for (;;) { break; }";
    "for (var k in obj) {}";
    "for (k in obj) {}";
    "for (var v of list) {}";
    "while (x) x--;";
    "do { x++; } while (x < 3);";
    "switch (x) { case 1: break; default: }";
    "try {} catch (e) {}";
    "try {} finally {}";
    "throw new Error(\"x\");";
    "a.b.c.d;";
    "a[0][\"k\"];";
    "new Foo(1, 2);";
    "new Foo;";
    "new new Wrap(Inner)();";
    "x = y = z = 1;";
    "x += 1; x -= 1; x *= 2; x /= 2; x %= 2; x **= 2;";
    "x &= 1; x |= 1; x ^= 1;";
    "a ? b : c;";
    "a, b, c;";
    "var o = {a: 1, \"b\": 2, 3: 4, [k]: 5, shorthand};";
    "var a = [1, , 3];";
    "var a = [];";
    "/abc/.test(s);";
    "var re = /a\\/b/gi;";
    "s.split(/,\\s*/);";
    "`template ${x + 1} tail`;";
    "label: while (1) { break label; }";
    "x++; x--; ++x; --x;";
    "typeof x; void 0; delete o.k;";
    "a instanceof B;";
    "\"k\" in o;";
    "1 .toString();";
    "(1).toString();";
    "x.in;"; (* keyword as property name *)
    "var of = 3; print(of);";
    "0x1F + 0Xff;";
    "1e3 + 1.5e-2 + .5;";
    "a() && b() || c();";
    "var s = 'single quotes';";
    "f(function() { return 1; });";
    "print(- -1);";
    "debugger;";
    (* ASI *)
    "var a = 1\nvar b = 2\nprint(a + b)";
    "x = 1\ny = 2";
    "return_less();\n{ }";
  ]

let rejected =
  [
    "var = 1;";
    "var 1x = 2;";
    "function () {}";
    "if (x";
    "for (var i = 0; i < 5; i++)"; (* missing loop body *)
    "while (x)";
    "x = ;";
    "a.;";
    "var o = {a 1};";
    "try {}"; (* no catch/finally *)
    "switch (x) { default: ; default: ; }";
    "const c;";
    "throw\n1;"; (* newline after throw *)
    "var s = \"unterminated;";
    "/* unterminated";
    "var class = 1;"; (* reserved word *)
    "x = 3in y;";
    "0x;";
    "1.5e;";
    "var re = /a/q;"; (* bad flag *)
    "continue outside;"; (* label after continue is parsed; outside a loop is semantic... *)
  ]

let acceptance_tests () =
  List.iter
    (fun src ->
      if not (parses src) then Alcotest.failf "should parse: %s" src)
    accepted

let rejection_tests () =
  List.iter
    (fun src ->
      match src with
      | "continue outside;" -> () (* parsed fine; runtime concern *)
      | _ ->
          if parses src then Alcotest.failf "should NOT parse: %s" src)
    rejected

let es5_options_tests () =
  let es5 src =
    match P.parse_program ~opts:P.es5_options src with
    | _ -> true
    | exception P.Syntax_error _ -> false
  in
  Alcotest.(check bool) "es5 rejects let" false (es5 "let x = 1;");
  Alcotest.(check bool) "es5 rejects const" false (es5 "const x = 1;");
  Alcotest.(check bool) "es5 rejects arrows" false (es5 "var f = (x) => x;");
  Alcotest.(check bool) "es5 rejects templates" false (es5 "var t = `x`;");
  Alcotest.(check bool) "es5 rejects for-of" false (es5 "for (var v of a) {}");
  Alcotest.(check bool) "es5 rejects exponent" false (es5 "var x = 2 ** 3;");
  Alcotest.(check bool) "es5 accepts plain code" true
    (es5 "var x = 1; function f() { return x; }");
  (* quirk options *)
  let chakra =
    { P.default_options with P.accept_for_missing_body = true }
  in
  Alcotest.(check bool) "chakra accepts bodiless for" true
    (match P.parse_program ~opts:chakra "for(var i = 0; i < 5; i++)" with
    | _ -> true
    | exception P.Syntax_error _ -> false)

let asi_tests () =
  check_out "asi basic" "var a = 1\nvar b = 2\nprint(a + b)" "3";
  check_out "asi return restriction"
    "function f() { return\n42; }\nprint(f());" "undefined";
  check_out "asi before close brace" "function f() { return 7 }\nprint(f())" "7";
  check_out "postfix stays on line"
    "var x = 1\nx++\nprint(x)" "2"

let directive_tests () =
  let p = P.parse_program "\"use strict\";\nvar x = 1;" in
  Alcotest.(check bool) "program strict flag" true p.Ast.prog_strict;
  let p2 = P.parse_program "var x = 1;" in
  Alcotest.(check bool) "no strict flag" false p2.Ast.prog_strict

(* --- QCheck: printer/parser round-trip over random programs --- *)

let gen_ident =
  QCheck2.Gen.(oneofl [ "a"; "b"; "x"; "y"; "foo"; "bar"; "v1"; "tmp" ])

let gen_lit =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> B.int i) (int_range (-1000) 1000);
        map (fun f -> B.num (Float.abs f)) (float_bound_inclusive 1e6);
        map (fun s -> B.str s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
        return (B.bool true);
        return (B.bool false);
        return B.null;
      ])

let rec gen_expr depth =
  let open QCheck2.Gen in
  if depth = 0 then oneof [ gen_lit; map B.ident gen_ident ]
  else
    oneof
      [
        gen_lit;
        map B.ident gen_ident;
        map2 (B.binary Ast.Add) (gen_expr (depth - 1)) (gen_expr (depth - 1));
        map2 (B.binary Ast.Mul) (gen_expr (depth - 1)) (gen_expr (depth - 1));
        map2 (B.binary Ast.Lt) (gen_expr (depth - 1)) (gen_expr (depth - 1));
        map2 (fun a b -> B.e (Ast.Logical (Ast.And, a, b))) (gen_expr (depth - 1))
          (gen_expr (depth - 1));
        map (fun e -> B.unary Ast.Unot e) (gen_expr (depth - 1));
        map (fun e -> B.unary Ast.Uneg e) (gen_expr (depth - 1));
        map3 (fun c t f -> B.cond c t f) (gen_expr (depth - 1))
          (gen_expr (depth - 1)) (gen_expr (depth - 1));
        map2 (fun o n -> B.field o n) (gen_expr (depth - 1)) gen_ident;
        map2 (fun f a -> B.call f [ a ]) (map B.ident gen_ident) (gen_expr (depth - 1));
        map (fun es -> B.array es) (list_size (int_range 0 3) (gen_expr (depth - 1)));
      ]

let rec gen_stmt depth =
  let open QCheck2.Gen in
  if depth = 0 then map B.expr_stmt (gen_expr 1)
  else
    oneof
      [
        map B.expr_stmt (gen_expr 2);
        map2 (fun n e -> B.var n e) gen_ident (gen_expr 2);
        map2 (fun c b -> B.s (Ast.If (c, b, None))) (gen_expr 1) (gen_stmt (depth - 1));
        map2 (fun c b -> B.s (Ast.While (c, b))) (gen_expr 1) (gen_stmt (depth - 1));
        map (fun b -> B.block [ b ]) (gen_stmt (depth - 1));
        map (fun e -> B.s (Ast.Return (Some e))) (gen_expr 2);
        map3
          (fun n ps b ->
            B.s
              (Ast.Func_decl
                 { fname = Some n; params = ps; body = [ b ]; is_arrow = false }))
          gen_ident
          (list_size (int_range 0 3) gen_ident)
          (gen_stmt (depth - 1));
        map (fun e -> B.throw e) (gen_expr 1);
      ]

let gen_program =
  QCheck2.Gen.(
    map (fun stmts -> B.program stmts) (list_size (int_range 1 6) (gen_stmt 2)))

let roundtrip_prop =
  QCheck2.Test.make ~count:300 ~name:"print/parse round-trip" gen_program
    (fun p ->
      let s1 = Jsast.Printer.program_to_string p in
      match P.parse_program s1 with
      | exception P.Syntax_error (msg, line) ->
          QCheck2.Test.fail_reportf "emitted invalid syntax (line %d: %s):\n%s"
            line msg s1
      | p2 ->
          let s2 = Jsast.Printer.program_to_string p2 in
          if s1 = s2 then true
          else
            QCheck2.Test.fail_reportf "round-trip mismatch:\n--- 1:\n%s\n--- 2:\n%s" s1 s2)

let idempotent_prop =
  QCheck2.Test.make ~count:200 ~name:"refresh preserves printing" gen_program
    (fun p ->
      let s1 = Jsast.Printer.program_to_string p in
      let s2 =
        Jsast.Printer.program_to_string
          { p with Ast.prog_body = List.map B.refresh_stmt p.Ast.prog_body }
      in
      s1 = s2)

(* --- Hex literals: ECMA-262 MV, correctly rounded --- *)

module L = Jsparse.Lexer
module T = Jsparse.Token

let first_number src =
  match (L.tokenize src).(0).L.tok with
  | T.Tnum f -> f
  | t -> Alcotest.failf "%S lexed to %s, not a number" src (T.to_string t)

let hex_literal_tests () =
  let check src v =
    Alcotest.(check int64) src (Int64.bits_of_float v)
      (Int64.bits_of_float (first_number src))
  in
  check "0x1F" 31.;
  check "0Xff" 255.;
  check "0x7FFFFFFFFFFFFFFF" 9223372036854775808.;
  check "0x4000000000000000" 4611686018427387904.;
  check "0xFFFFFFFFFFFFFFFF" 18446744073709551616.;
  check "0xFFFFFFFFFFFFFFFFFFFFFFFF" 7.922816251426434e28;
  (* ties round to even *)
  check "0x20000000000001" 9007199254740992.;
  check "0x20000000000003" 9007199254740996.;
  Alcotest.(check bool) "huge hex literal parses" true
    (parses "var big = 0xFFFFFFFFFFFFFFFF;")

(* --- Golden token stream ---

   The frozen sources in [Golden_lexer_corpus] and 4,000 seeded byte
   mutants of them are tokenized, and each group's token stream (each
   token with exact float bits, its line and its newline_before bit, or
   the lexer error and its line) is digested. The digests were recorded
   once; any lexer change that alters a token, a line, a newline bit or
   an error message fails here and names the groups it changed. *)

module G = Golden_lexer_corpus

(* xorshift: a generator fixed here, independent of the stdlib's, so the
   golden corpus never changes. [rand n] draws from [0, n). *)
let xorshift seed =
  let state = ref seed in
  fun n ->
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x;
    (x land max_int) mod n

(* A corpus program after one to four byte edits: replace, insert or
   delete a byte, splice in a slice of another program, or truncate. *)
let byte_mutant rand =
  let base = G.sources in
  let special = "\"'`\\/*${}\n\r\t0123456789xXuUeE.+-=<>!&|^~?:;,()[] _" in
  let byte () =
    if rand 2 = 0 then special.[rand (String.length special)]
    else Char.chr (rand 256)
  in
  let mutate s =
    let n = String.length s in
    let at = if n = 0 then 0 else rand (n + 1) in
    let pre = String.sub s 0 at and post = String.sub s at (n - at) in
    match rand 5 with
    | 0 when at < n -> pre ^ String.make 1 (byte ()) ^ String.sub post 1 (n - at - 1)
    | 1 -> pre ^ String.make 1 (byte ()) ^ post
    | 2 when at < n -> pre ^ String.sub post 1 (n - at - 1)
    | 3 ->
        let donor = base.(rand (Array.length base)) in
        let dn = String.length donor in
        let from = rand (dn + 1) in
        pre ^ String.sub donor from (min (rand 24) (dn - from)) ^ post
    | _ -> pre
  in
  let s = ref base.(rand (Array.length base)) in
  for _ = 0 to rand 4 do
    s := mutate !s
  done;
  !s

let golden_groups () =
  let rand = xorshift 0x2545F4914F6CDD1D in
  let mutants = Array.init 4000 (fun _ -> byte_mutant rand) in
  let size = 500 in
  G.groups
  @ List.init (4000 / size) (fun k ->
        ( Printf.sprintf "mutants %d-%d" (k * size) (((k + 1) * size) - 1),
          Array.to_list (Array.sub mutants (k * size) size) ))

let add_token_stream b src =
  let str tag s = Printf.bprintf b "%c%d:%s" tag (String.length s) s in
  let rec tok = function
    | T.Tnum f -> Printf.bprintf b "N%Lx" (Int64.bits_of_float f)
    | T.Tstr s -> str 'S' s
    | T.Ttemplate parts ->
        Buffer.add_char b 'T';
        List.iter
          (function
            | T.Pstr s -> str 's' s
            | T.Psub ts ->
                Buffer.add_char b '{';
                List.iter tok ts;
                Buffer.add_char b '}')
          parts;
        Buffer.add_char b ';'
    | T.Tregexp (body, flags) -> str 'R' body; str 'F' flags
    | T.Tident s -> str 'I' s
    | T.Tkeyword s -> str 'K' s
    | T.Tpunct s -> str 'P' s
    | T.Teof -> Buffer.add_char b '$'
  in
  (match L.tokenize src with
  | toks ->
      Array.iter
        (fun { L.tok = t; line; newline_before } ->
          tok t;
          Printf.bprintf b "@%d%c" line (if newline_before then 'n' else '.'))
        toks
  | exception L.Error (msg, line) -> Printf.bprintf b "E%d:%s@%d" (String.length msg) msg line);
  Buffer.add_char b '\n'

(* Recorded on the option-peeking lexer that the index-based one replaced,
   with the hex-literal fix already applied. The groups' streams
   concatenated digest to e5b0f8024c8472ebe468da655df8f537, the single
   digest first recorded over the same corpus. *)
let golden_digests =
  [
    ("lm corpus", "7dd5e43f491e6c4e52d3c8c002116f57");
    ("baseline seeds", "d1aaff220ed436c46bd2dcb8ca699210");
    ("edge cases", "7a383c2c13407fb1cef53aa0e2d124ae");
    ("parser tests", "93257d6017bf81e11e2bbf4a940464b5");
    ("mutants 0-499", "6093f2c68ba08f0960fc530a4a81a423");
    ("mutants 500-999", "8634fe4573f44485b38839a4820df2b9");
    ("mutants 1000-1499", "07e0a465ed84aac3e15ce0aa22764e06");
    ("mutants 1500-1999", "7f3a19e4c4a949704361a9afe322480c");
    ("mutants 2000-2499", "08d81fa8818b8e74eb69d680057a0d26");
    ("mutants 2500-2999", "e8b4bad6a74d41710e6df7d8df962426");
    ("mutants 3000-3499", "c7229cd9a46e981f99659f5b0927933a");
    ("mutants 3500-3999", "243e50538bb49306e5e7c0c96cfec90c");
  ]

let golden_token_stream_test () =
  let digest (_, sources) =
    let b = Buffer.create (1 lsl 16) in
    List.iter (add_token_stream b) sources;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let groups = golden_groups () in
  Alcotest.(check (list string)) "group names" (List.map fst golden_digests)
    (List.map fst groups);
  let changed =
    List.concat
      (List.map2
         (fun group (name, recorded) ->
           if digest group = recorded then [] else [ name ])
         groups golden_digests)
  in
  Alcotest.(check (list string)) "groups whose token stream changed" [] changed

(* --- Edition-sensitive sink: the ES5 profile only rejects ---

   The per-case front-end cache lets ES5 testbeds take the standard parse
   whenever that parse reported no edition-gated construct. Over the
   golden corpus, its byte mutants and the acceptance/rejection lists,
   with and without the parser-quirk acceptances: whenever the sink stays
   silent, the ES5 parse must end the same way (same printed program, or
   same syntax error at the same line) and sink the same quirks and the
   same strict-sensitivity. *)

let with_accepts (o : P.options) =
  {
    o with
    P.accept_for_missing_body = true;
    accept_dup_params_strict = true;
    accept_strict_delete_unqualified = true;
  }

(* (outcome, sunk quirks, strict-sensitive, edition-sensitive) *)
let parse_trace ~opts src =
  let quirks = ref [] and strict_s = ref false and edition_s = ref false in
  let opts =
    {
      opts with
      P.quirk_sink = (fun q -> quirks := q :: !quirks);
      strict_sensitive_sink = (fun () -> strict_s := true);
      edition_sensitive_sink = (fun () -> edition_s := true);
    }
  in
  let outcome =
    match P.parse_program ~opts src with
    | p -> Ok (Jsast.Printer.program_to_string p)
    | exception P.Syntax_error (msg, line) -> Error (msg, line)
  in
  (outcome, List.rev !quirks, !strict_s, !edition_s)

let edition_sink_tests () =
  let sources = List.concat_map snd (golden_groups ()) @ accepted @ rejected in
  let silent = ref 0 in
  List.iter
    (fun src ->
      List.iter
        (fun adjust ->
          let std, q, s, edition = parse_trace ~opts:(adjust P.default_options) src in
          if not edition then begin
            incr silent;
            let es5, q5, s5, _ = parse_trace ~opts:(adjust P.es5_options) src in
            if (std, q, s) <> (es5, q5, s5) then
              Alcotest.failf "ES5 parse differs on a silent source: %S" src
          end)
        [ Fun.id; with_accepts ])
    sources;
  (* two option variants per source: most parses leave the sink silent *)
  Alcotest.(check bool) "most parses are edition-insensitive" true
    (!silent > List.length sources);
  (* and the sink is not vacuous: every gated construct reports *)
  List.iter
    (fun src ->
      let _, _, _, edition = parse_trace ~opts:P.default_options src in
      Alcotest.(check bool) ("reports: " ^ src) true edition)
    [
      "let x = 1;";
      "const x = 1;";
      "for (var v of a) {}";
      "for (v of a) {}";
      "var f = (x) => x;";
      "var f = x => x;";
      "var x = 2 ** 3;";
      "var t = `x`;";
      "var r = /a/y;";
    ]

(* --- Hostile input: only the documented exceptions escape --- *)

let front_end_total src =
  (match L.tokenize src with _ -> () | exception L.Error _ -> ());
  List.iter
    (fun (opts, force_strict) ->
      match P.parse_program ~opts ~force_strict src with
      | _ -> ()
      | exception P.Syntax_error _ -> ())
    [
      (P.default_options, false);
      (P.es5_options, false);
      (P.default_options, true);
      (P.es5_options, true);
    ];
  true

let gen_hostile =
  let open QCheck2.Gen in
  let hex_digit = oneofl (List.of_seq (String.to_seq "0123456789abcdefABCDEF")) in
  let digits = string_size ~gen:(char_range '0' '9') (int_range 1 40) in
  let mutant = map (fun seed -> byte_mutant (xorshift (seed lor 1))) int in
  let hex_literal =
    map2
      (fun x ds -> "var h = 0" ^ x ^ ds ^ ";")
      (oneofl [ "x"; "X" ])
      (string_size ~gen:hex_digit (int_range 0 40))
  in
  let dec_literal =
    map3
      (fun i f e -> "x = " ^ i ^ f ^ e ^ ";")
      digits
      (oneof [ return ""; map (( ^ ) ".") digits ])
      (oneof [ return ""; map (( ^ ) "e") digits; map (( ^ ) "e-") digits ])
  in
  let escape =
    map3
      (fun q esc tail -> String.make 1 q ^ "\\" ^ esc ^ tail ^ String.make 1 q)
      (oneofl [ '"'; '\''; '`' ])
      (oneofl [ "x"; "u"; "x4"; "u00"; "u004"; "" ])
      (string_size ~gen:(oneof [ hex_digit; oneofl [ '_'; '\n'; 'g'; '"' ] ])
         (int_range 0 5))
  in
  oneof [ mutant; string_size (int_range 0 120); hex_literal; dec_literal; escape ]

let hostile_input_prop =
  QCheck2.Test.make ~count:3000 ~name:"hostile input raises only syntax errors"
    ~print:(Printf.sprintf "%S") gen_hostile front_end_total

let suite =
  [
    case "accepted programs" acceptance_tests;
    case "rejected programs" rejection_tests;
    case "es5 and quirk options" es5_options_tests;
    case "automatic semicolon insertion" asi_tests;
    case "directive prologue" directive_tests;
    case "hex literals" hex_literal_tests;
    case "golden token stream" golden_token_stream_test;
    case "silent edition sink: ES5 parses identically" edition_sink_tests;
    QCheck_alcotest.to_alcotest hostile_input_prop;
    QCheck_alcotest.to_alcotest roundtrip_prop;
    QCheck_alcotest.to_alcotest idempotent_prop;
  ]
