(* Execution coverage recorder (Istanbul substitute, §5.3.3).

   Tracks, per test program, which statement nodes executed, which branch
   arms were taken and which functions were entered. AST node ids (assigned
   by [Jsast.Builder]) identify locations; denominators come from the static
   counts in [Jsast.Visit]. *)

type t = {
  stmts : (int, unit) Hashtbl.t;        (* sid *)
  branches : (int * int, unit) Hashtbl.t;  (* node id, arm index *)
  funcs : (int, unit) Hashtbl.t;        (* node id of Func/Arrow/Func_decl *)
}

let create () =
  { stmts = Hashtbl.create 64; branches = Hashtbl.create 32; funcs = Hashtbl.create 8 }

let record_stmt t sid = Hashtbl.replace t.stmts sid ()
let record_branch t id arm = Hashtbl.replace t.branches (id, arm) ()
let record_func t id = Hashtbl.replace t.funcs id ()

type summary = {
  stmt_covered : int;
  stmt_total : int;
  branch_covered : int;
  branch_total : int;
  func_covered : int;
  func_total : int;
}

(* Only count locations that belong to [prog]: code executed through [eval]
   is parsed at run time with fresh node ids and must not inflate the test
   program's own coverage. *)
let summarize (t : t) (prog : Jsast.Ast.program) : summary =
  let open Jsast in
  let stmt_ids = Hashtbl.create 64 in
  let branch_keys = Hashtbl.create 64 in
  let func_ids = Hashtbl.create 16 in
  Visit.iter_program
    ~fe:(fun x ->
      match x.Ast.e with
      | Ast.Cond _ | Ast.Logical _ ->
          Hashtbl.replace branch_keys (x.Ast.eid, 0) ();
          Hashtbl.replace branch_keys (x.Ast.eid, 1) ()
      | Ast.Func _ | Ast.Arrow _ -> Hashtbl.replace func_ids x.Ast.eid ()
      | _ -> ())
    ~fs:(fun st ->
      Hashtbl.replace stmt_ids st.Ast.sid ();
      match st.Ast.s with
      | Ast.If _ | Ast.While _ | Ast.Do_while _ | Ast.For _ | Ast.For_in _
      | Ast.For_of _ ->
          Hashtbl.replace branch_keys (st.Ast.sid, 0) ();
          Hashtbl.replace branch_keys (st.Ast.sid, 1) ()
      | Ast.Switch (_, cases) ->
          List.iteri (fun i _ -> Hashtbl.replace branch_keys (st.Ast.sid, i) ()) cases
      | Ast.Func_decl _ -> Hashtbl.replace func_ids st.Ast.sid ()
      | _ -> ())
    prog;
  let count_in recorded universe =
    Hashtbl.fold
      (fun k () acc -> if Hashtbl.mem universe k then acc + 1 else acc)
      recorded 0
  in
  {
    stmt_covered = count_in t.stmts stmt_ids;
    stmt_total = Hashtbl.length stmt_ids;
    branch_covered = count_in t.branches branch_keys;
    branch_total = Hashtbl.length branch_keys;
    func_covered = count_in t.funcs func_ids;
    func_total = Hashtbl.length func_ids;
  }
