(* The static-analysis screening pass: scope resolution, early errors,
   determinism lint, screening verdicts, and the campaign integration
   (screened-out programs must never reach differential execution). *)

open Helpers
module A = Analysis
module S = Analysis.Scope
module E = Analysis.Early_errors
module L = Analysis.Lint

let parse src = Jsparse.Parser.parse_program src
let free src = S.free_variables (parse src)

(* --- scope resolution --- *)

let scope_var_hoisting () =
  Alcotest.(check (list string)) "var hoists to function scope" []
    (free {|print(typeof x); var x = 1;|});
  Alcotest.(check (list string)) "function declarations hoist" []
    (free {|print(f()); function f() { return 1; }|});
  Alcotest.(check (list string)) "var inside block hoists out" []
    (free {|if (1) { var y = 2; } print(y);|})

let scope_function_boundaries () =
  Alcotest.(check (list string)) "params bound inside their function only"
    [ "p" ]
    (free {|function h(p) { return p; } print(h(1) + p);|});
  Alcotest.(check (list string)) "shadowing param hides outer free name" []
    (free {|var a = 1; function g(a) { return a; } print(g(2));|});
  Alcotest.(check (list string)) "inner var does not leak out" [ "q" ]
    (free {|function f() { var q = 1; return q; } print(f() + q);|})

let scope_lexical_blocks () =
  Alcotest.(check (list string)) "let is block-scoped" [ "b" ]
    (free {|if (1) { let b = 1; } print(b);|});
  Alcotest.(check (list string)) "for-let head scoped to the loop" [ "i" ]
    (free {|for (let i = 0; i < 2; i++) { print(i); } print(i);|});
  Alcotest.(check (list string)) "catch param bound in its clause" [ "foo" ]
    (free {|try { foo(); } catch (e) { print(e); }|})

let scope_free_order () =
  Alcotest.(check (list string)) "first-reference order" [ "z"; "y" ]
    (free {|print(z + y); print(y + z);|});
  Alcotest.(check (list string)) "builtins are not free" []
    (free {|print(Math.abs(JSON.stringify([NaN, undefined])));|})

let scope_binding_table () =
  let r = S.resolve (parse {|var a = 1;
let b = 2;
const c = 3;
function f(p) { return p; }
try { f(a); } catch (err) { print(err); }
print(a + b + c);|}) in
  let kind name =
    (List.find (fun (b : S.binding) -> b.S.b_name = name) r.S.res_bindings)
      .S.b_kind
  in
  Alcotest.(check bool) "var" true (kind "a" = S.Bvar);
  Alcotest.(check bool) "let" true (kind "b" = S.Blet);
  Alcotest.(check bool) "const" true (kind "c" = S.Bconst);
  Alcotest.(check bool) "func" true (kind "f" = S.Bfunc);
  Alcotest.(check bool) "param" true (kind "p" = S.Bparam);
  Alcotest.(check bool) "catch" true (kind "err" = S.Bcatch);
  Alcotest.(check bool) "several scopes" true (r.S.res_scopes >= 3);
  Alcotest.(check (list string)) "no issues" []
    (List.map S.issue_to_string r.S.res_issues)

let scope_tdz_function_boundary () =
  (* a reference from inside a function that is merely *declared* before
     the let is not a TDZ violation: the call happens after binding *)
  let r = S.resolve (parse {|function g() { return t; } let t = 1; print(g());|}) in
  Alcotest.(check (list string)) "no TDZ across function boundary" []
    (List.map S.issue_to_string r.S.res_issues);
  Alcotest.(check (list string)) "t is not free" [] r.S.res_free

(* --- early errors: each rule, positive and negative --- *)

let rules src = List.map (fun e -> E.rule_to_string e.E.ee_rule) (E.check (parse src))
let rules_strict src =
  List.map (fun e -> E.rule_to_string e.E.ee_rule)
    (E.check ~strict:true (parse src))
let has rule l = List.mem rule l

let ee_duplicate_lexical () =
  Alcotest.(check bool) "let/let" true
    (has "duplicate-lexical-declaration" (rules {|let a = 1; let a = 2;|}));
  Alcotest.(check bool) "let/var clash" true
    (has "duplicate-lexical-declaration" (rules {|let y = 1; var y = 2;|}));
  Alcotest.(check bool) "var/var is legal" false
    (has "duplicate-lexical-declaration" (rules {|var a = 1; var a = 2;|}));
  Alcotest.(check bool) "same name in sibling blocks is legal" false
    (has "duplicate-lexical-declaration"
       (rules {|if (1) { let a = 1; } else { let a = 2; }|}))

let ee_const_assign () =
  Alcotest.(check bool) "assignment to const" true
    (has "assignment-to-const" (rules {|const c = 1; c = 2;|}));
  Alcotest.(check bool) "update of const" true
    (has "assignment-to-const" (rules {|const c = 1; c++;|}));
  Alcotest.(check bool) "let assignment is legal" false
    (has "assignment-to-const" (rules {|let l = 1; l = 2;|}))

let ee_tdz () =
  Alcotest.(check bool) "use before let" true
    (has "use-before-declaration" (rules {|print(x); let x = 1;|}));
  Alcotest.(check bool) "let x = x" true
    (has "use-before-declaration" (rules {|let x = x;|}));
  Alcotest.(check bool) "use after let is legal" false
    (has "use-before-declaration" (rules {|let x = 1; print(x);|}))

let ee_break_continue () =
  Alcotest.(check bool) "break outside" true
    (has "break-outside-loop" (rules {|break;|}));
  Alcotest.(check bool) "break in loop is legal" false
    (has "break-outside-loop" (rules {|while (0) { break; }|}));
  Alcotest.(check bool) "break in switch is legal" false
    (has "break-outside-loop" (rules {|switch (1) { case 1: break; }|}));
  Alcotest.(check bool) "continue outside" true
    (has "continue-outside-loop" (rules {|continue;|}));
  Alcotest.(check bool) "continue in switch" true
    (has "continue-outside-loop" (rules {|switch (1) { case 1: continue; }|}));
  Alcotest.(check bool) "continue in switch inside loop is legal" false
    (has "continue-outside-loop"
       (rules {|while (0) { switch (1) { case 1: continue; } }|}))

let ee_labels () =
  Alcotest.(check bool) "break to unbound label" true
    (has "unknown-label" (rules {|a: { break b; }|}));
  Alcotest.(check bool) "continue to non-loop label" true
    (has "unknown-label" (rules {|a: { continue a; }|}));
  Alcotest.(check bool) "break to own label is legal" false
    (has "unknown-label" (rules {|a: { break a; }|}));
  Alcotest.(check bool) "continue to loop label is legal" false
    (has "unknown-label" (rules {|a: while (0) { continue a; }|}))

let ee_return_outside () =
  Alcotest.(check bool) "top-level return" true
    (has "return-outside-function" (rules {|return 1;|}));
  Alcotest.(check bool) "return in function is legal" false
    (has "return-outside-function" (rules {|function f() { return 1; }|}))

let ee_strict_rules () =
  Alcotest.(check bool) "strict duplicate params" true
    (has "strict-duplicate-params" (rules_strict {|function f(a, a) { return a; }|}));
  Alcotest.(check bool) "sloppy duplicate params are legal" false
    (has "strict-duplicate-params" (rules {|function f(a, a) { return a; }|}));
  Alcotest.(check bool) "strict delete of a name" true
    (has "strict-delete-unqualified" (rules_strict {|var x = 1; delete x;|}));
  Alcotest.(check bool) "strict delete of a property is legal" false
    (has "strict-delete-unqualified"
       (rules_strict {|var o = { p: 1 }; delete o.p;|}));
  Alcotest.(check bool) "sloppy delete of a name is legal" false
    (has "strict-delete-unqualified" (rules {|var x = 1; delete x;|}));
  (* the reference parser rejects these itself; a quirky front end that
     accepts them (the seeded strict-parser bugs) is exactly the case the
     analysis catches — and the "use strict" prologue turns the strict
     rules on by default *)
  let opts =
    { Jsparse.Parser.default_options with accept_dup_params_strict = true }
  in
  let p =
    Jsparse.Parser.parse_program ~opts
      {|"use strict";
function f(a, a) { return a; }|}
  in
  Alcotest.(check bool) "prologue enables strict rules" true
    (has "strict-duplicate-params"
       (List.map (fun e -> E.rule_to_string e.E.ee_rule) (E.check p)))

(* --- determinism / triviality lint --- *)

let lint_findings src = List.map L.finding_to_string (L.lint (parse src))

let lint_nondeterminism () =
  Alcotest.(check bool) "Math.random" true
    (List.mem "nondeterministic call to Math.random"
       (lint_findings {|print(Math.random());|}));
  Alcotest.(check bool) "Date.now" true
    (lint_findings {|print(Date.now());|} <> []);
  Alcotest.(check bool) "new Date()" true
    (lint_findings {|var d = new Date(); print(d);|} <> []);
  Alcotest.(check (list string)) "new Date(ms) is deterministic" []
    (lint_findings {|var d = new Date(86400000); print(1);|})

let lint_observability () =
  Alcotest.(check bool) "pure arithmetic is inert" true
    (List.mem "no observable output" (lint_findings {|var x = 1; x = x + 2;|}));
  Alcotest.(check (list string)) "a call is observable" []
    (lint_findings {|print(1);|});
  Alcotest.(check (list string)) "a throw is observable" []
    (lint_findings {|throw 1;|})

(* --- screening verdicts --- *)

let verdict src =
  match A.screen ~strict:false src with
  | Ok (v, _) -> A.verdict_to_string v
  | Error msg -> Alcotest.failf "unexpected syntax error: %s" msg

let screening_rejects_degenerates () =
  (* at least ten distinct invalid/degenerate programs must be dropped *)
  let dropped =
    [
      {|let a = 1; let a = 2; print(a);|};
      {|let y = 1; var y = 2; print(y);|};
      {|const c = 1; c = 2; print(c);|};
      {|print(x); let x = 1;|};
      {|break;|};
      {|continue;|};
      {|return 1;|};
      {|a: { break b; }|};
      {|lab: print(1); continue lab;|};
      {|var x = 1; x = x + 2;|};
      {|var r = Math.random(); print(r);|};
      {|print(Date.now());|};
      {|var d = new Date(); print(d);|};
      {|if (1) { let a = 1; let a = 2; } print(0);|};
    ]
  in
  List.iter
    (fun src ->
      let v = verdict src in
      Alcotest.(check bool)
        (Printf.sprintf "dropped: %s (got %s)" src v)
        true
        (String.length v >= 4 && String.sub v 0 4 = "drop"))
    dropped;
  Alcotest.(check bool) "at least ten distinct programs" true
    (List.length (List.sort_uniq compare dropped) >= 10)

let screening_keeps_signal () =
  Alcotest.(check string) "plain program kept" "keep" (verdict {|print(1 + 2);|});
  (* strict-only early errors are differential signal for the seeded
     strict-parser quirks: sloppy code must survive the screen *)
  Alcotest.(check string) "sloppy dup params kept" "keep"
    (verdict {|function f(a, a) { return a; } print(f(1, 2));|});
  Alcotest.(check string) "sloppy delete kept" "keep"
    (verdict {|var x = 1; print(delete x);|});
  (match A.screen ~strict:false {|function f(a, a) { return a; } print(f(1, 2));|} with
  | Ok (_, diag) ->
      Alcotest.(check bool) "strict-only diagnostics reported" true
        (diag.A.d_strict_only <> [])
  | Error m -> Alcotest.failf "unexpected syntax error: %s" m);
  (* free variables are repairable, not fatal *)
  let v = verdict {|print(q + 1);|} in
  Alcotest.(check string) "free variable repairs" "repair:unbound:q" v

let screening_repair_executes () =
  let p = parse {|print(a + b);|} in
  let repaired = A.bind_free p in
  Alcotest.(check (list string)) "repair closes the program" []
    (S.free_variables repaired);
  let src = Jsast.Printer.program_to_string repaired in
  Alcotest.(check bool) "repaired program runs" true
    ((Jsinterp.Run.run src).Jsinterp.Run.r_status = Jsinterp.Run.Sts_normal)

let screening_accepts_working_corpus () =
  (* every corpus/seed program that executes successfully today must
     survive the screen: the pass may only reject dead weight *)
  let ok = ref 0 in
  List.iter
    (fun src ->
      let r = Jsinterp.Run.run ~fuel:200_000 src in
      if
        r.Jsinterp.Run.r_parse_error = None
        && r.Jsinterp.Run.r_status = Jsinterp.Run.Sts_normal
        && r.Jsinterp.Run.r_output <> ""
      then begin
        incr ok;
        match A.screen ~strict:false src with
        | Error m -> Alcotest.failf "screen rejects parseable program: %s" m
        | Ok (A.Drop reason, _) ->
            Alcotest.failf "screen drops a working program (%s):\n%s" reason src
        | Ok ((A.Keep | A.Repair _), _) -> ()
      end)
    (Lm.Js_corpus.programs @ Baselines.Seeds.common @ Baselines.Seeds.programs);
  Alcotest.(check bool) "corpus sample is non-trivial" true (!ok >= 50)

let screen_case_bypasses_invalid_syntax () =
  (* deliberately invalid programs are parser-exercise inputs and carry
     their own differential signal; the semantic screen must not eat them *)
  let tc = Comfort.Testcase.make {|var = ;|} in
  Alcotest.(check bool) "case is syntax-invalid" false
    tc.Comfort.Testcase.tc_syntax_valid;
  match Comfort.Campaign.screen_case tc with
  | Comfort.Campaign.S_kept tc' ->
      Alcotest.(check string) "kept untouched" tc.Comfort.Testcase.tc_source
        tc'.Comfort.Testcase.tc_source
  | _ -> Alcotest.fail "invalid-syntax case was not passed through"

(* --- campaign integration --- *)

let const_fuzzer name srcs =
  let i = ref 0 in
  Comfort.Campaign.make_fuzzer ~name ~seed:0 ~raw:None (fun () ->
      let src = List.nth srcs (!i mod List.length srcs) in
      incr i;
      Some (Comfort.Testcase.make_parsed (Comfort.Testcase.P_fuzzer "Test") src))

let testbeds = lazy (Engines.Engine.latest_testbeds ())

let campaign_screen_blocks_execution () =
  (* a fuzzer that only emits droppable programs: with screening on,
     nothing must ever reach Difftest.run_case — the timeline ticks once
     per executed case, so it must stay empty *)
  let fz = const_fuzzer "Poison" [ {|var r = Math.random(); print(r);|} ] in
  let res =
    Comfort.Campaign.run ~testbeds:(Lazy.force testbeds) ~budget:10 fz
  in
  Alcotest.(check int) "no case executed" 0 res.Comfort.Campaign.cp_cases_run;
  Alcotest.(check (list (pair int int))) "timeline empty" []
    res.Comfort.Campaign.cp_timeline;
  Alcotest.(check bool) "screened count reported" true
    (res.Comfort.Campaign.cp_screened_out > 0);
  Alcotest.(check bool) "reason histogram names the lint" true
    (List.mem_assoc "nondeterministic:Math.random"
       res.Comfort.Campaign.cp_screen_reasons)

let campaign_screen_redraws_to_budget () =
  (* half the stream is droppable: replacement draws must still fill the
     execution budget *)
  let fz =
    const_fuzzer "Mixed" [ {|print(1 + 2);|}; {|let a = 1; let a = 2; print(a);|} ]
  in
  let res =
    Comfort.Campaign.run ~testbeds:(Lazy.force testbeds) ~budget:10 fz
  in
  Alcotest.(check int) "budget still honoured" 10
    res.Comfort.Campaign.cp_cases_run;
  Alcotest.(check bool) "drops counted" true
    (res.Comfort.Campaign.cp_screened_out >= 5)

let campaign_screen_repairs () =
  let fz = const_fuzzer "Unbound" [ {|print(q + 1);|} ] in
  let res =
    Comfort.Campaign.run ~testbeds:(Lazy.force testbeds) ~budget:6 fz
  in
  Alcotest.(check int) "budget honoured" 6 res.Comfort.Campaign.cp_cases_run;
  Alcotest.(check int) "every case repaired" 6 res.Comfort.Campaign.cp_repaired

let comfort_campaign_screens () =
  (* the default Comfort fuzzer, screened: some of its output is dropped
     (the ISSUE acceptance criterion) and the campaign still finds bugs *)
  let fz = Comfort.Campaign.comfort_fuzzer ~seed:11 () in
  let res = Comfort.Campaign.run ~budget:300 fz in
  Alcotest.(check int) "budget honoured" 300 res.Comfort.Campaign.cp_cases_run;
  Alcotest.(check bool) "nonzero screened count" true
    (res.Comfort.Campaign.cp_screened_out > 0);
  Alcotest.(check bool) "reason histogram populated" true
    (res.Comfort.Campaign.cp_screen_reasons <> []);
  Alcotest.(check int) "histogram sums to the screened count"
    res.Comfort.Campaign.cp_screened_out
    (List.fold_left (fun acc (_, n) -> acc + n) 0
       res.Comfort.Campaign.cp_screen_reasons)

let suite =
  [
    case "scope: var and function hoisting" scope_var_hoisting;
    case "scope: function boundaries" scope_function_boundaries;
    case "scope: lexical blocks" scope_lexical_blocks;
    case "scope: free-variable order and builtins" scope_free_order;
    case "scope: binding table" scope_binding_table;
    case "scope: TDZ stops at function boundaries" scope_tdz_function_boundary;
    case "early errors: duplicate lexical" ee_duplicate_lexical;
    case "early errors: const assignment" ee_const_assign;
    case "early errors: TDZ" ee_tdz;
    case "early errors: break/continue placement" ee_break_continue;
    case "early errors: labels" ee_labels;
    case "early errors: return placement" ee_return_outside;
    case "early errors: strict-mode rules" ee_strict_rules;
    case "lint: nondeterminism" lint_nondeterminism;
    case "lint: observability" lint_observability;
    case "screen: rejects degenerate programs" screening_rejects_degenerates;
    case "screen: keeps differential signal" screening_keeps_signal;
    case "screen: repair closes and runs" screening_repair_executes;
    case "screen: accepts working corpus programs" screening_accepts_working_corpus;
    case "screen: invalid syntax passes through" screen_case_bypasses_invalid_syntax;
    case "campaign: screen blocks execution" campaign_screen_blocks_execution;
    case "campaign: redraws fill the budget" campaign_screen_redraws_to_budget;
    case "campaign: repairs unbound cases" campaign_screen_repairs;
    case "campaign: comfort fuzzer is screened" comfort_campaign_screens;
  ]
