(* Test-case reduction (paper §3.5).

   Walks the AST and iteratively removes code structures, keeping a removal
   whenever the reduced program still triggers the same anomalous behaviour
   — same deviation kind and same fired ground-truth quirks — on the
   deviating testbed. Repeats to a fixpoint. *)

open Jsast

(* All programs obtainable by deleting exactly one statement. *)
let one_step_deletions (p : Ast.program) : Ast.program list =
  let sids = ref [] in
  Visit.iter_program ~fs:(fun st -> sids := st.Ast.sid :: !sids) p;
  List.filter_map
    (fun sid ->
      let removed = ref false in
      let rec drop_stmts (stmts : Ast.stmt list) : Ast.stmt list =
        List.filter_map
          (fun (st : Ast.stmt) ->
            if st.Ast.sid = sid then begin
              removed := true;
              None
            end
            else Some (drop_in_stmt st))
          stmts
      and drop_in_stmt (st : Ast.stmt) : Ast.stmt =
        let remap d = { st with Ast.s = d } in
        match st.Ast.s with
        | Ast.Block body -> remap (Ast.Block (drop_stmts body))
        | Ast.If (c, t, f) ->
            remap (Ast.If (c, drop_in_stmt t, Option.map drop_in_stmt f))
        | Ast.For (i, c, u, b) -> remap (Ast.For (i, c, u, drop_in_stmt b))
        | Ast.For_in (k, n, o, b) -> remap (Ast.For_in (k, n, o, drop_in_stmt b))
        | Ast.For_of (k, n, o, b) -> remap (Ast.For_of (k, n, o, drop_in_stmt b))
        | Ast.While (c, b) -> remap (Ast.While (c, drop_in_stmt b))
        | Ast.Do_while (b, c) -> remap (Ast.Do_while (drop_in_stmt b, c))
        | Ast.Labeled (l, b) -> remap (Ast.Labeled (l, drop_in_stmt b))
        | Ast.Try (b, h, f) ->
            remap
              (Ast.Try
                 ( drop_stmts b,
                   Option.map (fun (pn, hb) -> (pn, drop_stmts hb)) h,
                   Option.map drop_stmts f ))
        | Ast.Switch (d, cases) ->
            remap
              (Ast.Switch
                 (d, List.map (fun (c, body) -> (c, drop_stmts body)) cases))
        | Ast.Func_decl f ->
            remap (Ast.Func_decl { f with Ast.body = drop_stmts f.Ast.body })
        | Ast.Var_decl (k, decls) ->
            remap
              (Ast.Var_decl
                 ( k,
                   List.map
                     (fun (n, init) ->
                       match init with
                       | Some { Ast.e = Ast.Func f; Ast.eid } ->
                           ( n,
                             Some
                               {
                                 Ast.eid;
                                 Ast.e = Ast.Func { f with Ast.body = drop_stmts f.Ast.body };
                               } )
                       | other -> (n, other))
                     decls ))
        | _ -> st
      in
      let body' = drop_stmts p.Ast.prog_body in
      if !removed then Some { p with Ast.prog_body = body' } else None)
    !sids

(* Structure simplifications: replace a compound statement by its body. *)
let one_step_simplifications (p : Ast.program) : Ast.program list =
  let sids = ref [] in
  Visit.iter_program
    ~fs:(fun st ->
      match st.Ast.s with
      | Ast.If _ | Ast.While _ | Ast.For _ | Ast.Try _ | Ast.Labeled _ ->
          sids := st.Ast.sid :: !sids
      | _ -> ())
    p;
  List.map
    (fun sid ->
      Transform.map_program
        ~fs:(fun st ->
          if st.Ast.sid <> sid then st
          else
            match st.Ast.s with
            | Ast.If (_, t, _) -> t
            | Ast.While (_, b) -> b
            | Ast.For (_, _, _, b) -> b
            | Ast.Try (b, _, _) -> { st with Ast.s = Ast.Block b }
            | Ast.Labeled (_, b) -> b
            | _ -> st)
        p)
    !sids

(* Reduce [src] while [still_triggers] holds. Greedy first-improvement
   search to a fixpoint; the candidate order prefers large deletions first
   (top-level statements come first in id order). *)
let reduce ~(still_triggers : string -> bool) (src : string) :
    string =
  match Jsparse.Parser.parse_program src with
  | exception Jsparse.Parser.Syntax_error _ -> src
  | p0 ->
      let to_src p = Printer.program_to_string p in
      let rec fixpoint p budget =
        if budget = 0 then p
        else
          let candidates = one_step_deletions p @ one_step_simplifications p in
          let len = String.length (to_src p) in
          let better =
            List.find_opt
              (fun cand ->
                let s = to_src cand in
                String.length s < len && still_triggers s)
              candidates
          in
          match better with
          | Some cand -> fixpoint cand (budget - 1)
          | None -> p
      in
      to_src (fixpoint p0 200)

(* Convenience: build the predicate from a deviation observed on a testbed.
   The reduced program must still fire the same quirks and produce the same
   behaviour class on that testbed. *)
let still_triggers_deviation ?strategy (tb : Engines.Engine.testbed)
    (original : Difftest.deviation) : string -> bool =
 fun src ->
  (* compare the deviating testbed directly against the reference engine:
     the reduced program must keep the same behaviour class and keep firing
     the same ground-truth quirks. Both runs go through one per-candidate
     probe cache, so they share the parse and — under [Fast], when the
     quirks the target touched are all absent from its config — the
     execution itself *)
  let ec = Engines.Engine.Exec.probe_cache src in
  let target = Engines.Engine.Exec.run ?strategy ec tb in
  let reference = Engines.Engine.Exec.run_reference ?strategy ec in
  let tsig = Difftest.signature_of_result target in
  let rsig = Difftest.signature_of_result reference in
  tsig <> rsig
  && Difftest.behavior_label tsig rsig = original.Difftest.d_behavior
  && Jsinterp.Quirk.Set.subset original.Difftest.d_fired
       target.Jsinterp.Run.r_fired
