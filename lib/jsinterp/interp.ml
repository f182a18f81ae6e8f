(* The evaluator: statements, expressions, calls, and scope management.

   One instance of this module implements all ten simulated engines; the
   behavioural differences come exclusively from the quirk set and parser
   options carried by the context. Execution is metered by a fuel budget
   ([Value.burn]) standing in for wall-clock time. *)

open Value
module Ast = Jsast.Ast

exception Return_exc of value
exception Break_exc of string option
exception Continue_exc of string option

let new_scope parent =
  { bindings = Hashtbl.create 8; parent = Some parent; frozen_names = [] }

let rec lookup (scope : scope) (name : string) : value ref option =
  match Hashtbl.find_opt scope.bindings name with
  | Some r -> Some r
  | None -> ( match scope.parent with Some p -> lookup p name | None -> None)

let rec scope_of_binding (scope : scope) (name : string) : scope option =
  if Hashtbl.mem scope.bindings name then Some scope
  else match scope.parent with Some p -> scope_of_binding p name | None -> None

(* --- identifier fallbacks, shared between the tree-walker and the
   slot-compiled path ([Compile]): what happens once the scope chain is
   exhausted --- *)

let ident_read_miss ctx (name : string) : value =
  match Ops.get_if_present ctx ctx.global name with
  | Some v -> v
  | None -> Ops.reference_error ctx (name ^ " is not defined")

let ident_typeof_miss ctx (name : string) : value =
  match Ops.get_if_present ctx ctx.global name with
  | Some v -> Str (type_of v)
  | None -> Str "undefined"

(* Assignment to a bare identifier, resolved against a live scope chain.
   The whole [Ident] arm of [assign_to] lives here so the compiled path's
   dynamic fallback (which targets [ctx.global_scope]) shares it. *)
let assign_ident ctx (scope : scope) strict (name : string) (v : value) : unit =
  match scope_of_binding scope name with
  | Some s ->
      if List.mem name s.frozen_names then begin
        if fire ctx Quirk.Q_named_funcexpr_binding_mutable then
          (match Hashtbl.find_opt s.bindings name with
          | Some r -> r := v
          | None -> ())
        else if strict then
          Ops.type_error ctx ("assignment to constant variable " ^ name)
        (* sloppy: silent no-op *)
      end
      else (
        match Hashtbl.find_opt s.bindings name with
        | Some r -> r := v
        | None -> ())
  | None ->
      if Ops.has_property ctx ctx.global name then
        Ops.set_obj ctx ~strict ctx.global name v
      else if strict then
        if fire ctx Quirk.Q_strict_undeclared_assign_silent then
          Ops.set_obj ctx ~strict:false ctx.global name v
        else Ops.reference_error ctx (name ^ " is not defined")
      else Ops.set_obj ctx ~strict:false ctx.global name v

(* --- do any binder positions shadow [undefined]/[NaN]/[Infinity]? ---

   When no executed program binds one of those names anywhere, their
   identifier arms in [eval] can return the constant without walking the
   scope chain (the global-object properties carry the same values and are
   non-writable). One pre-pass per executed program, monotone across
   [eval]: once shadowed, stay conservative. *)

exception Found_special

let check_special n =
  match n with
  | "undefined" | "NaN" | "Infinity" -> raise Found_special
  | _ -> ()

let rec specials_stmt (st : Ast.stmt) =
  match st.Ast.s with
  | Ast.Expr_stmt x | Ast.Throw x -> specials_expr x
  | Ast.Var_decl (_, decls) ->
      List.iter
        (fun (n, i) ->
          check_special n;
          Option.iter specials_expr i)
        decls
  | Ast.Func_decl f -> specials_func f
  | Ast.Return x -> Option.iter specials_expr x
  | Ast.If (c, t, f) ->
      specials_expr c;
      specials_stmt t;
      Option.iter specials_stmt f
  | Ast.Block body -> List.iter specials_stmt body
  | Ast.For (init, c, u, body) ->
      (match init with
      | Some (Ast.FI_decl (_, decls)) ->
          List.iter
            (fun (n, i) ->
              check_special n;
              Option.iter specials_expr i)
            decls
      | Some (Ast.FI_expr x) -> specials_expr x
      | None -> ());
      Option.iter specials_expr c;
      Option.iter specials_expr u;
      specials_stmt body
  | Ast.For_in (_, n, o, body) | Ast.For_of (_, n, o, body) ->
      check_special n;
      specials_expr o;
      specials_stmt body
  | Ast.While (c, body) ->
      specials_expr c;
      specials_stmt body
  | Ast.Do_while (body, c) ->
      specials_stmt body;
      specials_expr c
  | Ast.Labeled (_, body) -> specials_stmt body
  | Ast.Try (b, h, f) ->
      List.iter specials_stmt b;
      Option.iter
        (fun (p, hb) ->
          check_special p;
          List.iter specials_stmt hb)
        h;
      Option.iter (List.iter specials_stmt) f
  | Ast.Switch (d, cases) ->
      specials_expr d;
      List.iter
        (fun (c, b) ->
          Option.iter specials_expr c;
          List.iter specials_stmt b)
        cases
  | Ast.Break _ | Ast.Continue _ | Ast.Empty | Ast.Debugger -> ()

and specials_func (f : Ast.func) =
  Option.iter check_special f.Ast.fname;
  List.iter check_special f.Ast.params;
  List.iter specials_stmt f.Ast.body

and specials_expr (x : Ast.expr) =
  match x.Ast.e with
  | Ast.Lit _ | Ast.Ident _ | Ast.This -> ()
  | Ast.Array_lit elems -> List.iter (Option.iter specials_expr) elems
  | Ast.Object_lit props ->
      List.iter
        (fun (pn, v) ->
          (match pn with Ast.PN_computed e -> specials_expr e | _ -> ());
          specials_expr v)
        props
  | Ast.Func f | Ast.Arrow f -> specials_func f
  | Ast.Unary (_, e) -> specials_expr e
  | Ast.Binary (_, a, b) | Ast.Logical (_, a, b) | Ast.Seq (a, b) ->
      specials_expr a;
      specials_expr b
  | Ast.Assign (_, l, r) ->
      specials_expr l;
      specials_expr r
  | Ast.Update (_, _, t) -> specials_expr t
  | Ast.Cond (c, t, f) ->
      specials_expr c;
      specials_expr t;
      specials_expr f
  | Ast.Call (f, args) | Ast.New (f, args) ->
      specials_expr f;
      List.iter specials_expr args
  | Ast.Member (o, p) ->
      specials_expr o;
      (match p with Ast.Pindex e -> specials_expr e | Ast.Pfield _ -> ())
  | Ast.Template parts ->
      List.iter
        (function Ast.Tsub e -> specials_expr e | Ast.Tstr _ -> ())
        parts

let binds_specials (prog : Ast.program) : bool =
  match List.iter specials_stmt prog.Ast.prog_body with
  | () -> false
  | exception Found_special -> true

(* --- hoisting: [var] and function declarations are function-scoped.
   The traversal itself is shared with the scope resolver (see
   [Jsast.Visit.hoist_stmt]) so the analyses and the engine agree on
   binding structure by construction. --- *)

let hoist_stmt = Jsast.Visit.hoist_stmt

(* --- coverage helpers --- *)

let cov_stmt ctx (st : Ast.stmt) =
  match ctx.coverage with
  | Some c -> Coverage.record_stmt c st.Ast.sid
  | None -> ()

let cov_branch ctx id arm =
  match ctx.coverage with
  | Some c -> Coverage.record_branch c id arm
  | None -> ()

let cov_func ctx id =
  match ctx.coverage with Some c -> Coverage.record_func c id | None -> ()

(* --- closures --- *)

let make_function ctx ?(name = "") ?(this_lex = None) ?(node_id = 0) ~strict
    (f : Ast.func) (scope : scope) : value =
  let o = make_obj ~oclass:"Function" ~proto:(proto_of ctx "Function") () in
  let fname = match f.Ast.fname with Some n -> n | None -> name in
  (* named function expressions see their own name as an immutable binding *)
  let fn_scope, binding =
    match f.Ast.fname with
    | Some n when not f.Ast.is_arrow ->
        let s = new_scope scope in
        let r = ref Undefined in
        Hashtbl.replace s.bindings n r;
        s.frozen_names <- [ n ];
        (s, Some r)
    | _ -> (scope, None)
  in
  o.call <-
    Some
      (Js_closure
         {
           cl_name = fname;
           cl_params = f.Ast.params;
           cl_body = f.Ast.body;
           cl_scope = fn_scope;
           cl_this = this_lex;
           cl_strict = strict;
           cl_binding = binding;
           cl_node_id = node_id;
         });
  set_own o "length"
    (mkprop ~writable:false ~enumerable:false ~configurable:true
       (Num (Float.of_int (List.length f.Ast.params))));
  set_own o "name"
    (mkprop ~writable:false ~enumerable:false ~configurable:true (Str fname));
  (* ordinary functions get a fresh .prototype for [new] *)
  if not f.Ast.is_arrow then begin
    let pr = make_obj ~oclass:"Object" ~proto:(proto_of ctx "Object") () in
    set_own pr "constructor" (mkprop ~enumerable:false (Obj o));
    set_own o "prototype" (mkprop ~enumerable:false (Obj pr))
  end;
  let v = Obj o in
  (match binding with Some r -> r := v | None -> ());
  v

(* Detect a "use strict" directive at the start of a function body. *)
let body_is_strict (body : Ast.stmt list) =
  match body with
  | { Ast.s = Ast.Expr_stmt { Ast.e = Ast.Lit (Ast.Lstr "use strict"); _ }; _ } :: _ ->
      true
  | _ -> false

let rec call_function ctx (fn : value) (this : value) (args : value list) : value =
  burn ctx 2;
  if ctx.depth > 2000 then
    Ops.range_error ctx "Maximum call stack size exceeded";
  match fn with
  | Obj ({ call = Some (Native (_, _, impl)); _ } as _o) -> impl ctx this args
  | Obj ({ call = Some (Compiled co); _ } as _o) -> co.co_call ctx this args
  | Obj ({ call = Some (Js_closure cl); _ } as _o) ->
      let scope =
        { bindings = Hashtbl.create 8; parent = Some cl.cl_scope; frozen_names = [] }
      in
      let strict = cl.cl_strict || body_is_strict cl.cl_body in
      (* bind parameters *)
      List.iteri
        (fun i p ->
          let v = match List.nth_opt args i with Some v -> v | None -> Undefined in
          Hashtbl.replace scope.bindings p (ref v))
        cl.cl_params;
      (* [this] *)
      let this_v =
        match cl.cl_this with
        | Some lexical -> lexical
        | None -> (
            match this with
            | Undefined | Null ->
                if strict then
                  if fire ctx Quirk.Q_strict_this_is_global then Obj ctx.global
                  else Undefined
                else Obj ctx.global
            | v -> v)
      in
      Hashtbl.replace scope.bindings "this" (ref this_v);
      let saved_this = ctx.cur_this in
      ctx.cur_this <- this_v;
      cov_func ctx cl.cl_node_id;
      (* [arguments] (not for arrows) *)
      (if cl.cl_this = None then
         let argobj = Ops.make_array ctx args in
         argobj.oclass <- "Arguments";
         Hashtbl.replace scope.bindings "arguments" (ref (Obj argobj)));
      (* hoist vars and function declarations *)
      hoist_stmt_list ctx scope strict cl.cl_body;
      ctx.depth <- ctx.depth + 1;
      let result =
        try
          let r =
            try
              exec_stmts ctx scope strict cl.cl_body;
              Undefined
            with Return_exc v -> v
          in
          ctx.depth <- ctx.depth - 1;
          ctx.cur_this <- saved_this;
          r
        with e ->
          ctx.depth <- ctx.depth - 1;
          ctx.cur_this <- saved_this;
          raise e
      in
      result
  | _ -> Ops.type_error ctx (Ops.to_string ctx fn ^ " is not a function")

and construct ctx (fn : value) (args : value list) : value =
  burn ctx 2;
  match fn with
  | Obj ({ call = Some _; _ } as fo) -> (
      let proto =
        match Ops.get_obj ctx fo "prototype" with
        | Obj p -> Obj p
        | _ -> proto_of ctx "Object"
      in
      let this = make_obj ~oclass:"Object" ~proto () in
      match fo.call with
      | Some (Native (_, _, impl)) -> (
          (* constructor natives build and return their own object *)
          match impl ctx (Obj this) args with
          | Obj _ as built -> built
          | _ -> Obj this)
      | Some (Js_closure _) | Some (Compiled _) -> (
          match call_function ctx fn (Obj this) args with
          | Obj _ as built -> built
          | _ -> Obj this)
      | None -> assert false)
  | _ -> Ops.type_error ctx "not a constructor"

and hoist_stmt_list ctx scope strict (body : Ast.stmt list) =
  let funcs = ref [] in
  List.iter
    (hoist_stmt
       ~on_var:(fun n ->
         if not (Hashtbl.mem scope.bindings n) then
           Hashtbl.replace scope.bindings n (ref Undefined))
       ~on_func:(fun sf -> funcs := sf :: !funcs))
    body;
  List.iter
    (fun ((sid, f) : int * Ast.func) ->
      let fname = Option.value f.Ast.fname ~default:"" in
      let v = make_function ctx ~node_id:sid ~strict f scope in
      Hashtbl.replace scope.bindings fname (ref v))
    (List.rev !funcs)

(* --- statements --- *)

and exec_stmts ctx scope strict stmts = List.iter (exec_stmt ctx scope strict) stmts

and exec_block ctx scope strict stmts =
  (* blocks open a fresh scope for let/const *)
  let s = new_scope scope in
  exec_stmts ctx s strict stmts

and exec_stmt ctx scope strict (st : Ast.stmt) : unit =
  burn ctx 1;
  cov_stmt ctx st;
  match st.Ast.s with
  | Ast.Expr_stmt x -> ignore (eval ctx scope strict x)
  | Ast.Var_decl (kind, decls) ->
      List.iter
        (fun (n, init) ->
          let v = match init with Some x -> eval ctx scope strict x | None -> Undefined in
          match kind with
          | Ast.Var -> (
              (* target the hoisted binding *)
              match lookup scope n with
              | Some r -> if init <> None then r := v
              | None -> Hashtbl.replace scope.bindings n (ref v))
          | Ast.Let | Ast.Const -> Hashtbl.replace scope.bindings n (ref v))
        decls
  | Ast.Func_decl _ -> () (* installed during hoisting *)
  | Ast.Return x ->
      let v = match x with Some x -> eval ctx scope strict x | None -> Undefined in
      raise (Return_exc v)
  | Ast.If (c, t, f) ->
      if Ops.to_boolean (eval ctx scope strict c) then begin
        cov_branch ctx st.Ast.sid 0;
        exec_stmt ctx scope strict t
      end
      else begin
        cov_branch ctx st.Ast.sid 1;
        match f with Some f -> exec_stmt ctx scope strict f | None -> ()
      end
  | Ast.Block body -> exec_block ctx scope strict body
  | Ast.For (init, cond, upd, body) ->
      let s = new_scope scope in
      (match init with
      | Some (Ast.FI_decl (kind, decls)) ->
          List.iter
            (fun (n, i) ->
              let v = match i with Some x -> eval ctx s strict x | None -> Undefined in
              match kind with
              | Ast.Var -> (
                  (* var is function-scoped: write the hoisted binding *)
                  match lookup scope n with
                  | Some r -> if i <> None then r := v
                  | None -> Hashtbl.replace s.bindings n (ref v))
              | Ast.Let | Ast.Const -> Hashtbl.replace s.bindings n (ref v))
            decls
      | Some (Ast.FI_expr x) -> ignore (eval ctx s strict x)
      | None -> ());
      run_loop ctx st.Ast.sid (fun () ->
          let go =
            match cond with
            | Some c -> Ops.to_boolean (eval ctx s strict c)
            | None -> true
          in
          if go then begin
            (try exec_stmt ctx s strict body with Continue_exc None -> ());
            (match upd with Some u -> ignore (eval ctx s strict u) | None -> ());
            true
          end
          else false)
  | Ast.While (c, body) ->
      run_loop ctx st.Ast.sid (fun () ->
          if Ops.to_boolean (eval ctx scope strict c) then begin
            (try exec_stmt ctx scope strict body with Continue_exc None -> ());
            true
          end
          else false)
  | Ast.Do_while (body, c) ->
      run_loop ctx st.Ast.sid (fun () ->
          (try exec_stmt ctx scope strict body with Continue_exc None -> ());
          Ops.to_boolean (eval ctx scope strict c))
  | Ast.For_in (kind, name, objx, body) ->
      let ov = eval ctx scope strict objx in
      let keys =
        match ov with
        | Obj o -> Ops.enum_keys ctx o
        | Str s -> List.init (String.length s) string_of_int
        | _ -> []
      in
      let s = new_scope scope in
      let r =
        match kind with
        | Some Ast.Var | None -> (
            match lookup scope name with
            | Some r -> r
            | None ->
                let r = ref Undefined in
                Hashtbl.replace s.bindings name r;
                r)
        | Some (Ast.Let | Ast.Const) ->
            let r = ref Undefined in
            Hashtbl.replace s.bindings name r;
            r
      in
      iterate_loop ctx st.Ast.sid
        (List.map (fun k -> Str k) keys)
        (fun v ->
          r := v;
          try exec_stmt ctx s strict body with Continue_exc None -> ())
  | Ast.For_of (kind, name, objx, body) ->
      let ov = eval ctx scope strict objx in
      let items =
        match ov with
        | Obj ({ arr = Some _; _ } as o) -> Ops.array_values o
        | Str str -> List.init (String.length str) (fun i -> Str (String.make 1 str.[i]))
        | _ -> Ops.type_error ctx "value is not iterable"
      in
      let s = new_scope scope in
      let r =
        match kind with
        | Some Ast.Var | None -> (
            match lookup scope name with
            | Some r -> r
            | None ->
                let r = ref Undefined in
                Hashtbl.replace s.bindings name r;
                r)
        | Some (Ast.Let | Ast.Const) ->
            let r = ref Undefined in
            Hashtbl.replace s.bindings name r;
            r
      in
      iterate_loop ctx st.Ast.sid items (fun v ->
          r := v;
          try exec_stmt ctx s strict body with Continue_exc None -> ())
  | Ast.Break l -> raise (Break_exc l)
  | Ast.Continue l -> raise (Continue_exc l)
  | Ast.Throw x -> raise (Js_throw (eval ctx scope strict x))
  | Ast.Try (body, handler, finalizer) ->
      let run_finally () =
        match finalizer with
        | Some f -> exec_block ctx scope strict f
        | None -> ()
      in
      (try
         exec_block ctx scope strict body;
         run_finally ()
       with
      | Js_throw v -> (
          match handler with
          | Some (param, hbody) ->
              let s = new_scope scope in
              Hashtbl.replace s.bindings param (ref v);
              (try exec_stmts ctx s strict hbody
               with e ->
                 run_finally ();
                 raise e);
              run_finally ()
          | None ->
              run_finally ();
              raise (Js_throw v))
      | e ->
          (* control-flow exceptions still run the finalizer *)
          run_finally ();
          raise e)
  | Ast.Switch (d, cases) ->
      let dv = eval ctx scope strict d in
      let s = new_scope scope in
      (* find the matching case (or default), then fall through *)
      let rec find i = function
        | [] -> (
            (* no case matched: retry looking for default *)
            match
              List.find_index (fun (c, _) -> c = None) cases
            with
            | Some di -> Some di
            | None -> None)
        | (Some c, _) :: rest ->
            if Ops.strict_equals dv (eval ctx s strict c) then Some i
            else find (i + 1) rest
        | (None, _) :: rest -> find (i + 1) rest
      in
      (match find 0 cases with
      | None -> ()
      | Some start -> (
          cov_branch ctx st.Ast.sid start;
          try
            List.iteri
              (fun i (_, body) ->
                if i >= start then exec_stmts ctx s strict body)
              cases
          with Break_exc None -> ()))
  | Ast.Labeled (label, inner) -> (
      try exec_stmt ctx scope strict inner with
      | Break_exc (Some l) when l = label -> ()
      | Continue_exc (Some l) when l = label -> ())
  | Ast.Empty | Ast.Debugger -> ()

(* Shared loop driver handling break, iteration counting for the optimizer
   quirks, and per-iteration fuel. *)
and run_loop ctx sid step =
  let saved_trip = ctx.loop_trip in
  ctx.loop_trip <- 0;
  let entered = ref false in
  (try
     while
       burn ctx 1;
       let continue_ = step () in
       if continue_ then begin
         entered := true;
         ctx.loop_trip <- ctx.loop_trip + 1
       end;
       continue_
     do
       ()
     done
   with Break_exc None -> ());
  cov_branch ctx sid (if !entered then 0 else 1);
  ctx.loop_trip <- saved_trip

and iterate_loop ctx sid items f =
  let saved_trip = ctx.loop_trip in
  ctx.loop_trip <- 0;
  (try
     List.iter
       (fun v ->
         burn ctx 1;
         ctx.loop_trip <- ctx.loop_trip + 1;
         f v)
       items
   with Break_exc None -> ());
  cov_branch ctx sid (if items <> [] then 0 else 1);
  ctx.loop_trip <- saved_trip

(* --- expressions --- *)

and eval ctx scope strict (x : Ast.expr) : value =
  burn ctx 1;
  match x.Ast.e with
  | Ast.Lit Ast.Lnull -> Null
  | Ast.Lit (Ast.Lbool b) -> Bool b
  | Ast.Lit (Ast.Lnum f) -> Num f
  | Ast.Lit (Ast.Lstr s) -> Str s
  | Ast.Lit (Ast.Lregexp (pat, flags)) -> make_regexp ctx pat flags
  | Ast.Ident "undefined" ->
      if not ctx.specials_shadowed then Undefined
      else (match lookup scope "undefined" with Some r -> !r | None -> Undefined)
  | Ast.Ident "NaN" ->
      if not ctx.specials_shadowed then Num Float.nan
      else (match lookup scope "NaN" with Some r -> !r | None -> Num Float.nan)
  | Ast.Ident "Infinity" ->
      if not ctx.specials_shadowed then Num Float.infinity
      else (
        match lookup scope "Infinity" with
        | Some r -> !r
        | None -> Num Float.infinity)
  | Ast.Ident name -> (
      match lookup scope name with
      | Some r -> !r
      | None -> ident_read_miss ctx name)
  | Ast.This ->
      (* kept current by [call_function]/[exec_in_scope]; scopes never bind
         "this" anywhere else, so this equals the chain-walk result *)
      ctx.cur_this
  | Ast.Array_lit elems ->
      let vals =
        List.map
          (function Some e -> eval ctx scope strict e | None -> Undefined)
          elems
      in
      Obj (Ops.make_array ctx vals)
  | Ast.Object_lit props ->
      let o = make_obj ~oclass:"Object" ~proto:(proto_of ctx "Object") () in
      List.iter
        (fun (pn, vx) ->
          let key =
            match pn with
            | Ast.PN_ident n -> n
            | Ast.PN_str s -> s
            | Ast.PN_num f -> Ops.number_to_string f
            | Ast.PN_computed e -> Ops.to_string ctx (eval ctx scope strict e)
          in
          let v = eval ctx scope strict vx in
          set_own o key (mkprop v))
        props;
      Obj o
  | Ast.Func f -> make_function ctx ~node_id:x.Ast.eid ~strict f scope
  | Ast.Arrow f ->
      make_function ctx ~node_id:x.Ast.eid ~strict
        ~this_lex:(Some ctx.cur_this) f scope
  | Ast.Unary (op, ox) -> eval_unary ctx scope strict op ox
  | Ast.Binary (op, a, b) -> eval_binary ctx scope strict op a b
  | Ast.Logical (op, a, b) -> (
      let va = eval ctx scope strict a in
      match op with
      | Ast.And ->
          if Ops.to_boolean va then begin
            cov_branch ctx x.Ast.eid 1;
            eval ctx scope strict b
          end
          else begin
            cov_branch ctx x.Ast.eid 0;
            va
          end
      | Ast.Or ->
          if Ops.to_boolean va then begin
            cov_branch ctx x.Ast.eid 0;
            va
          end
          else begin
            cov_branch ctx x.Ast.eid 1;
            eval ctx scope strict b
          end)
  | Ast.Assign (op, lhs, rhs) -> eval_assign ctx scope strict op lhs rhs
  | Ast.Update (op, prefix, target) ->
      let old = Ops.to_number ctx (eval_ref ctx scope strict target) in
      let nv = (match op with Ast.Incr -> old +. 1.0 | Ast.Decr -> old -. 1.0) in
      assign_to ctx scope strict target (Num nv);
      if prefix then Num nv else Num old
  | Ast.Cond (c, t, f) ->
      if Ops.to_boolean (eval ctx scope strict c) then begin
        cov_branch ctx x.Ast.eid 0;
        eval ctx scope strict t
      end
      else begin
        cov_branch ctx x.Ast.eid 1;
        eval ctx scope strict f
      end
  | Ast.Call (f, args) -> eval_call ctx scope strict f args
  | Ast.New (f, args) ->
      let fv = eval ctx scope strict f in
      let argv = List.map (eval ctx scope strict) args in
      construct ctx fv argv
  | Ast.Member (ox, Ast.Pindex e) ->
      let ov = eval ctx scope strict ox in
      Ops.get_index ctx ov (eval ctx scope strict e)
  | Ast.Member (ox, Ast.Pfield n) -> Ops.get ctx (eval ctx scope strict ox) n
  | Ast.Seq (a, b) ->
      ignore (eval ctx scope strict a);
      eval ctx scope strict b
  | Ast.Template parts ->
      let buf = Buffer.create 16 in
      List.iter
        (function
          | Ast.Tstr s -> Buffer.add_string buf s
          | Ast.Tsub e -> Buffer.add_string buf (Ops.to_string ctx (eval ctx scope strict e)))
        parts;
      Str (Buffer.contents buf)

and eval_ref ctx scope strict (x : Ast.expr) : value =
  (* like eval but tolerates unresolvable identifiers for update/compound
     assignment targets — those still throw per spec, so just reuse eval *)
  eval ctx scope strict x

and member_key ctx scope strict (p : Ast.property) : string =
  match p with
  | Ast.Pfield n -> n
  | Ast.Pindex e -> Ops.to_string ctx (eval ctx scope strict e)

and eval_unary ctx scope strict op (ox : Ast.expr) : value =
  match op with
  | Ast.Utypeof -> (
      (* typeof tolerates unresolved identifiers *)
      match ox.Ast.e with
      | Ast.Ident name -> (
          match lookup scope name with
          | Some r -> Str (type_of !r)
          | None -> ident_typeof_miss ctx name)
      | _ -> Str (type_of (eval ctx scope strict ox)))
  | Ast.Udelete -> (
      match ox.Ast.e with
      | Ast.Member (o, prop) -> (
          let ov = eval ctx scope strict o in
          let key = member_key ctx scope strict prop in
          match ov with
          | Obj obj -> Bool (Ops.delete ctx ~strict obj key)
          | _ -> Bool true)
      | Ast.Ident name ->
          (* sloppy mode: deleting a global succeeds if configurable *)
          if Ops.has_own ctx ctx.global name then
            Bool (Ops.delete ctx ~strict ctx.global name)
          else Bool (lookup scope name = None)
      | _ ->
          ignore (eval ctx scope strict ox);
          Bool true)
  | Ast.Uvoid ->
      ignore (eval ctx scope strict ox);
      Undefined
  | Ast.Unot -> Bool (not (Ops.to_boolean (eval ctx scope strict ox)))
  | Ast.Uneg ->
      let f = Ops.to_number ctx (eval ctx scope strict ox) in
      let r = -.f in
      if r = 0.0 && fire ctx Quirk.Q_codegen_neg_zero_positive then Num 0.0
      else Num r
  | Ast.Uplus -> Num (Ops.to_number ctx (eval ctx scope strict ox))
  | Ast.Ubnot ->
      let i = Ops.to_int32 ctx (eval ctx scope strict ox) in
      Num (Int32.to_float (Int32.lognot i))

and eval_binary ctx scope strict op (ax : Ast.expr) (bx : Ast.expr) : value =
  let a = eval ctx scope strict ax in
  let b = eval ctx scope strict bx in
  apply_binop ctx op a b

and apply_binop ctx (op : Ast.binop) (a : value) (b : value) : value =
  match op with
  | Ast.Add -> Ops.add ctx a b
  | Ast.Sub -> Num (Ops.to_number ctx a -. Ops.to_number ctx b)
  | Ast.Mul -> Num (Ops.to_number ctx a *. Ops.to_number ctx b)
  | Ast.Div -> Num (Ops.to_number ctx a /. Ops.to_number ctx b)
  | Ast.Mod ->
      let x = Ops.to_number ctx a and y = Ops.to_number ctx b in
      let r = Float.rem x y in
      if fire ctx Quirk.Q_codegen_mod_sign_wrong && r <> 0.0 && (r < 0.0) <> (y < 0.0)
      then Num (r +. y) (* python-style sign: follows the divisor *)
      else Num r
  | Ast.Exp -> Num (Float.pow (Ops.to_number ctx a) (Ops.to_number ctx b))
  | Ast.Eq -> Bool (Ops.abstract_equals ctx a b)
  | Ast.Neq -> Bool (not (Ops.abstract_equals ctx a b))
  | Ast.StrictEq -> Bool (Ops.strict_equals a b)
  | Ast.StrictNeq -> Bool (not (Ops.strict_equals a b))
  | Ast.Lt -> Ops.relational ctx `Lt a b
  | Ast.Gt -> Ops.relational ctx `Gt a b
  | Ast.Le -> Ops.relational ctx `Le a b
  | Ast.Ge -> Ops.relational ctx `Ge a b
  | Ast.BitAnd -> Num (Int32.to_float (Int32.logand (Ops.to_int32 ctx a) (Ops.to_int32 ctx b)))
  | Ast.BitOr -> Num (Int32.to_float (Int32.logor (Ops.to_int32 ctx a) (Ops.to_int32 ctx b)))
  | Ast.BitXor -> Num (Int32.to_float (Int32.logxor (Ops.to_int32 ctx a) (Ops.to_int32 ctx b)))
  | Ast.Shl ->
      let x = Ops.to_int32 ctx a in
      let count = Float.to_int (Ops.to_uint32 ctx b) in
      if count >= 32 && fire ctx Quirk.Q_codegen_shift_count_unmasked then Num 0.0
      else Num (Int32.to_float (Int32.shift_left x (count land 31)))
  | Ast.Shr ->
      let x = Ops.to_int32 ctx a in
      let count = Float.to_int (Ops.to_uint32 ctx b) land 31 in
      Num (Int32.to_float (Int32.shift_right x count))
  | Ast.Ushr ->
      if fire ctx Quirk.Q_codegen_ushr_signed then
        let x = Ops.to_int32 ctx a in
        let count = Float.to_int (Ops.to_uint32 ctx b) land 31 in
        Num (Int32.to_float (Int32.shift_right x count))
      else
        let x = Ops.to_uint32 ctx a in
        let xi = Float.to_int x in
        let count = Float.to_int (Ops.to_uint32 ctx b) land 31 in
        Num (Float.of_int (xi lsr count))
  | Ast.Instanceof -> (
      match b with
      | Obj fo when fo.call <> None -> (
          match Ops.get_obj ctx fo "prototype" with
          | Obj proto ->
              let rec walk = function
                | Obj o -> o == proto || walk o.proto
                | _ -> false
              in
              Bool (match a with Obj ao -> walk ao.proto | _ -> false)
          | _ -> Ops.type_error ctx "function has non-object prototype")
      | _ -> Ops.type_error ctx "right-hand side of instanceof is not callable")
  | Ast.In -> (
      match b with
      | Obj o -> Bool (Ops.has_property ctx o (Ops.to_string ctx a))
      | _ -> Ops.type_error ctx "cannot use 'in' on non-object")

and eval_assign ctx scope strict op (lhs : Ast.expr) (rhs : Ast.expr) : value =
  let rv = eval ctx scope strict rhs in
  let v =
    match op with
    | None -> rv
    | Some bop ->
        let old = eval ctx scope strict lhs in
        let result = apply_binop ctx bop old rv in
        (* optimizer quirk: one [+=] string append is lost in a
           long-running loop (models a JIT tier-up miscompile) *)
        (match (result, bop) with
        | Str _, Ast.Add
          when ctx.loop_trip > 100 && ctx.strconcat_drop_armed
               && fire ctx Quirk.Q_opt_loop_strconcat_drops ->
            ctx.strconcat_drop_armed <- false;
            (* keep the old value: the append is dropped *)
            old
        | _ -> result)
        |> fun r -> r
  in
  assign_to ctx scope strict lhs v;
  v

and assign_to ctx scope strict (lhs : Ast.expr) (v : value) : unit =
  match lhs.Ast.e with
  | Ast.Ident name -> assign_ident ctx scope strict name v
  | Ast.Member (ox, Ast.Pfield n) ->
      Ops.set ctx ~strict (eval ctx scope strict ox) n v
  | Ast.Member (ox, Ast.Pindex ix) -> (
      let ov = eval ctx scope strict ox in
      let kv = eval ctx scope strict ix in
      (* QuickJS quirk (Listing 6): a boolean property key on an array
         appends the value as a new element *)
      match (ov, kv) with
      | Obj ({ arr = Some arr; _ } as o), Bool true
        when arr.ty = None && fire ctx Quirk.Q_bool_prop_appends_to_array ->
          Ops.array_store ctx o arr arr.alen v
      | _ -> Ops.set_index ctx ~strict ov kv v)
  | _ -> Ops.type_error ctx "invalid assignment target"

and eval_call ctx scope strict (fx : Ast.expr) (args : Ast.expr list) : value =
  (* method calls must pass the receiver as [this] *)
  match fx.Ast.e with
  | Ast.Member (ox, prop) ->
      let ov = eval ctx scope strict ox in
      let key = member_key ctx scope strict prop in
      let fv = Ops.get ctx ov key in
      if not (is_callable fv) then
        Ops.type_error ctx
          (Printf.sprintf "%s.%s is not a function" (type_of ov) key);
      let argv = List.map (eval ctx scope strict) args in
      call_function ctx fv ov argv
  | _ ->
      let fv = eval ctx scope strict fx in
      let argv = List.map (eval ctx scope strict) args in
      call_function ctx fv Undefined argv

and make_regexp ctx pat flags : value =
  match Regex.compile pat flags with
  | prog ->
      let o = make_obj ~oclass:"RegExp" ~proto:(proto_of ctx "RegExp") () in
      o.regex <- Some { rx_source = pat; rx_flags = flags; rx_prog = prog };
      set_own o "lastIndex" (mkprop ~enumerable:false ~configurable:false (Num 0.0));
      set_own o "source" (mkprop ~writable:false ~enumerable:false (Str pat));
      set_own o "flags" (mkprop ~writable:false ~enumerable:false (Str flags));
      set_own o "global" (mkprop ~writable:false ~enumerable:false (Bool prog.Regex.flag_g));
      Obj o
  | exception Regex.Parse_error msg ->
      Ops.syntax_error ctx ("invalid regular expression: " ^ msg)

(* --- program entry --- *)

(* Execute a program in a given scope. Used by [Run] for whole programs and
   by the [eval] builtin for eval code (which shares the caller's scope).
   Returns the completion value (last expression statement's value), which
   [eval] needs. *)
let exec_in_scope ctx scope ~strict (prog : Ast.program) : value =
  let strict = strict || prog.Ast.prog_strict in
  if (not ctx.specials_shadowed) && binds_specials prog then
    ctx.specials_shadowed <- true;
  let saved_this = ctx.cur_this in
  ctx.cur_this <-
    (match lookup scope "this" with Some r -> !r | None -> Obj ctx.global);
  Fun.protect
    ~finally:(fun () -> ctx.cur_this <- saved_this)
    (fun () ->
      hoist_stmt_list ctx scope strict prog.Ast.prog_body;
      let completion = ref Undefined in
      List.iter
        (fun (st : Ast.stmt) ->
          match st.Ast.s with
          | Ast.Expr_stmt x ->
              burn ctx 1;
              cov_stmt ctx st;
              completion := eval ctx scope strict x
          | _ -> exec_stmt ctx scope strict st)
        prog.Ast.prog_body;
      !completion)

let exec_program ctx (prog : Ast.program) : value =
  exec_in_scope ctx ctx.global_scope ~strict:prog.Ast.prog_strict prog
