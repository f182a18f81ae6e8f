(* The miniature JS regex engine. *)

open Jsinterp
open Helpers

let m pat flags input =
  let prog = Regex.compile pat flags in
  match Regex.exec prog input 0 with
  | Some r -> Some (String.sub input r.Regex.m_start (r.Regex.m_end - r.Regex.m_start))
  | None -> None

let check_match name pat flags input expected =
  Alcotest.(check (option string)) name expected (m pat flags input)

let basics () =
  check_match "literal" "abc" "" "xxabcxx" (Some "abc");
  check_match "no match" "abc" "" "xyz" None;
  check_match "dot" "a.c" "" "abc" (Some "abc");
  check_match "dot not newline" "a.c" "" "a\nc" None;
  check_match "star" "ab*c" "" "abbbc" (Some "abbbc");
  check_match "star empty" "ab*c" "" "ac" (Some "ac");
  check_match "plus" "ab+c" "" "abc" (Some "abc");
  check_match "plus requires one" "ab+c" "" "ac" None;
  check_match "question" "colou?r" "" "color" (Some "color");
  check_match "greedy" "a.*c" "" "abcabc" (Some "abcabc");
  check_match "lazy" "a.*?c" "" "abcabc" (Some "abc");
  check_match "alternation" "cat|dog" "" "hotdog" (Some "dog");
  check_match "alternation first wins" "a|ab" "" "ab" (Some "a");
  check_match "group" "(ab)+" "" "ababx" (Some "abab");
  check_match "non-capturing" "(?:ab)+c" "" "ababc" (Some "ababc");
  check_match "nested groups" "((a)b)c" "" "abc" (Some "abc")

let classes () =
  check_match "class" "[abc]+" "" "xxbca" (Some "bca");
  check_match "range" "[a-f]+" "" "zzabf" (Some "abf");
  check_match "negated" "[^0-9]+" "" "12ab3" (Some "ab");
  check_match "digit" "\\d+" "" "ab123" (Some "123");
  check_match "non-digit" "\\D+" "" "12ab" (Some "ab");
  check_match "word" "\\w+" "" "!!a_1!" (Some "a_1");
  check_match "space" "\\s+" "" "a \t b" (Some " \t ");
  check_match "escaped dot" "a\\.c" "" "a.c" (Some "a.c");
  check_match "escaped dot no wild" "a\\.c" "" "abc" None;
  check_match "class with dash end" "[a-]" "" "-" (Some "-");
  check_match "hex escape" "\\x41+" "" "zAAB" (Some "AA")

let anchors_flags () =
  check_match "caret" "^ab" "" "abc" (Some "ab");
  check_match "caret mid fails" "^b" "" "ab" None;
  check_match "dollar" "bc$" "" "abc" (Some "bc");
  check_match "dollar mid fails" "a$" "" "ab" None;
  check_match "both anchors" "^abc$" "" "abc" (Some "abc");
  check_match "ignorecase" "HeLLo" "i" "hello" (Some "hello");
  check_match "ignorecase class" "[A-Z]+" "i" "abc" (Some "abc");
  check_match "multiline caret" "^b" "m" "a\nb" (Some "b");
  check_match "multiline dollar" "a$" "m" "a\nb" (Some "a")

let quantifiers () =
  check_match "exact count" "a{3}" "" "aaaa" (Some "aaa");
  check_match "exact too few" "a{3}" "" "aa" None;
  check_match "min count" "a{2,}" "" "aaaa" (Some "aaaa");
  check_match "range count" "a{2,3}" "" "aaaa" (Some "aaa");
  check_match "brace literal when invalid" "a{x}" "" "a{x}" (Some "a{x}");
  check_match "zero-width star terminates" "(a?)*b" "" "b" (Some "b")

let captures () =
  let prog = Regex.compile "(\\d+)-(\\d+)" "" in
  match Regex.exec prog "ab 12-34 cd" 0 with
  | None -> Alcotest.fail "expected a match"
  | Some r ->
      Alcotest.(check int) "start" 3 r.Regex.m_start;
      (match r.Regex.m_groups.(0) with
      | Some (a, b) -> Alcotest.(check string) "group 1" "12" (String.sub "ab 12-34 cd" a (b - a))
      | None -> Alcotest.fail "group 1 missing");
      (match r.Regex.m_groups.(1) with
      | Some (a, b) -> Alcotest.(check string) "group 2" "34" (String.sub "ab 12-34 cd" a (b - a))
      | None -> Alcotest.fail "group 2 missing")

let errors () =
  let bad pat =
    match Regex.compile pat "" with
    | exception Regex.Parse_error _ -> ()
    | _ -> Alcotest.failf "pattern should be rejected: %s" pat
  in
  bad "(";
  bad "a)";
  bad "[abc";
  bad "*a";
  bad "a{3,1}";
  match Regex.compile "a" "gz" with
  | exception Regex.Parse_error _ -> ()
  | _ -> Alcotest.fail "bad flag should be rejected"

(* each knob through an engine carrying its quirk, against the
   conforming engine's standard semantics *)
let deviated_semantics () =
  let check name quirk src ~standard =
    Alcotest.(check string) (name ^ ", conforming")
      (string_of_bool standard ^ "\n") (out_q [] src);
    Alcotest.(check string) (name ^ ", quirked")
      (string_of_bool (not standard) ^ "\n") (out_q [ quirk ] src)
  in
  check "dot-newline quirk" Quirk.Q_regex_dot_matches_newline
    {|print(/a.c/.test("a\nc"));|} ~standard:false;
  check "broken ignorecase" Quirk.Q_regex_ignorecase_broken
    {|print(/ABC/i.test("abc"));|} ~standard:true;
  check "broken class negation" Quirk.Q_regex_class_negation_broken
    {|print(/[^x]/.test("x"));|} ~standard:false

(* property: every match the engine reports is a real substring occurrence
   for literal-only patterns *)
let literal_prop =
  QCheck2.Test.make ~count:300 ~name:"literal patterns find real occurrences"
    QCheck2.Gen.(
      pair
        (string_size ~gen:(char_range 'a' 'c') (int_range 1 4))
        (string_size ~gen:(char_range 'a' 'c') (int_range 0 12)))
    (fun (pat, input) ->
      let prog = Regex.compile pat "" in
      match Regex.exec prog input 0 with
      | Some r ->
          String.sub input r.Regex.m_start (r.Regex.m_end - r.Regex.m_start) = pat
      | None ->
          (* no occurrence: check exhaustively *)
          let n = String.length input and m = String.length pat in
          not
            (List.exists
               (fun i -> String.sub input i m = pat)
               (List.init (max 0 (n - m + 1)) (fun i -> i))))

let suite =
  [
    case "basics" basics;
    case "character classes" classes;
    case "anchors and flags" anchors_flags;
    case "quantifiers" quantifiers;
    case "captures" captures;
    case "parse errors" errors;
    case "deviation knobs" deviated_semantics;
    QCheck_alcotest.to_alcotest literal_prop;
  ]
