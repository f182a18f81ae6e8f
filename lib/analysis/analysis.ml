(* Screening façade over the scope resolver, early-error checker and lint;
   see the interface for the policy rationale. *)

module Scope = Scope
module Early_errors = Early_errors
module Lint = Lint

type verdict = Keep | Repair of string | Drop of string

type diagnostics = {
  d_free : string list;
  d_errors : Early_errors.error list;
  d_strict_only : Early_errors.error list;
  d_lint : Lint.finding list;
}

let verdict_to_string = function
  | Keep -> "keep"
  | Repair r -> "repair:" ^ r
  | Drop r -> "drop:" ^ r

(* [strict_only] runs the second, strict early-error pass, which only
   diagnosis reads: no verdict depends on it. *)
let diagnose ~strict_only ~strict_mode (p : Jsast.Ast.program) : diagnostics =
  let errors = Early_errors.check ~strict:strict_mode p in
  let strict_only =
    if strict_mode || not strict_only then []
    else
      List.filter
        (fun e -> not (List.mem e errors))
        (Early_errors.check ~strict:true p)
  in
  {
    d_free = Scope.free_variables p;
    d_errors = errors;
    d_strict_only = strict_only;
    d_lint = Lint.lint p;
  }

let analyze ?strict (p : Jsast.Ast.program) : diagnostics =
  let strict_mode =
    match strict with Some s -> s | None -> p.Jsast.Ast.prog_strict
  in
  diagnose ~strict_only:true ~strict_mode p

let verdict_of (d : diagnostics) : verdict =
  match d.d_errors with
  | e :: _ -> Drop (Early_errors.rule_to_string e.Early_errors.ee_rule)
  | [] -> (
      let nondet =
        List.find_map
          (function Lint.Nondeterministic api -> Some api | _ -> None)
          d.d_lint
      in
      match nondet with
      | Some api -> Drop ("nondeterministic:" ^ api)
      | None ->
          if List.mem Lint.No_observable_output d.d_lint then
            Drop "no-observable-output"
          else
            (* unbound names are repairable; everything else was fatal *)
            match d.d_free with
            | [] -> Keep
            | free -> Repair ("unbound:" ^ String.concat "," free))

let screen_verdict (p : Jsast.Ast.program) : verdict =
  verdict_of
    (diagnose ~strict_only:false ~strict_mode:p.Jsast.Ast.prog_strict p)

let screen ?strict (src : string) : (verdict * diagnostics, string) result =
  match Jsparse.Parser.check_syntax src with
  | Ok p ->
      let d = analyze ?strict p in
      Ok (verdict_of d, d)
  | Error (msg, line) -> Error (Printf.sprintf "%s (line %d)" msg line)

let bind_free (p : Jsast.Ast.program) : Jsast.Ast.program =
  match Scope.free_variables p with
  | [] -> p
  | free ->
      let decls =
        List.map (fun n -> Jsast.Builder.var n (Jsast.Builder.int 1)) free
      in
      { p with Jsast.Ast.prog_body = decls @ p.Jsast.Ast.prog_body }
