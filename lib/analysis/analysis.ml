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

let analyze ?strict (p : Jsast.Ast.program) : diagnostics =
  let strict_mode =
    match strict with Some s -> s | None -> p.Jsast.Ast.prog_strict
  in
  let errors = Early_errors.check ~strict:strict_mode p in
  let strict_only =
    if strict_mode then []
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

let screen_program ?strict (p : Jsast.Ast.program) : verdict * diagnostics =
  let d = analyze ?strict p in
  (verdict_of d, d)

let screen ?strict (src : string) : (verdict * diagnostics, string) result =
  match Jsparse.Parser.check_syntax src with
  | Ok p -> Ok (screen_program ?strict p)
  | Error (msg, line) -> Error (Printf.sprintf "%s (line %d)" msg line)

let bind_free ?(value = fun _ -> Jsast.Builder.int 1)
    (p : Jsast.Ast.program) : Jsast.Ast.program =
  match Scope.free_variables p with
  | [] -> p
  | free ->
      let decls = List.map (fun n -> Jsast.Builder.var n (value n)) free in
      { p with Jsast.Ast.prog_body = decls @ p.Jsast.Ast.prog_body }
