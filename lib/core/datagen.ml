(* ECMA-262-guided test-data generation — Algorithm 1 of the paper.

   Takes a generated test program, finds the JS API call sites it contains,
   looks each up in the specification database, and emits mutated test
   cases whose inputs hit the boundary conditions the spec text mentions
   (plus some purely random inputs to enrich the pool, §3.3).

   Three mutation strategies cover the shapes generated programs take:
   - driver synthesis: the program defines [function foo(str, start, len)]
     but never calls it — synthesize the Figure-2-style driver that assigns
     boundary values to fresh variables, calls the function, and prints the
     result;
   - variable-initialiser mutation: an argument traces back to a [var]
     declaration — rewrite its initialiser (the [var len = undefined] move);
   - in-place argument substitution: replace an argument expression at the
     call site, or drop trailing optional arguments. *)

open Jsast
module B = Builder

type mutant = {
  m_source : string;
  m_api : string;   (** spec entry that guided the mutation *)
  m_guided : bool;  (** true when boundary values from the spec were used;
                        false for purely random ("normal condition") data *)
}

(* Parse a boundary-value source fragment into an expression. *)
let parse_value (v : string) : Ast.expr option =
  match Jsparse.Parser.parse_program ("(" ^ v ^ ");") with
  | { Ast.prog_body = [ { Ast.s = Ast.Expr_stmt e; _ } ]; _ } -> Some e
  | _ -> None
  | exception Jsparse.Parser.Syntax_error _ -> None

(* A plausible receiver for an API, from the spec entry's receiver type. *)
let receiver_value (entry : Specdb.Spec_ast.entry) : Ast.expr =
  let name = entry.Specdb.Spec_ast.e_name in
  let starts_with p = String.length name >= String.length p && String.sub name 0 (String.length p) = p in
  if starts_with "Array.prototype" then B.array [ B.int 1; B.int 2; B.int 5 ]
  else if starts_with "%TypedArray%" then
    B.new_ (B.ident "Uint8Array") [ B.int 5 ]
  else if starts_with "RegExp.prototype" then B.regexp "a" "g"
  else if starts_with "DataView.prototype" then
    B.new_ (B.ident "DataView") [ B.int 8 ]
  else
    match entry.Specdb.Spec_ast.e_receiver with
    | Specdb.Spec_ast.Tstring -> B.str "Name: Albert"
    | Specdb.Spec_ast.Tnumber -> B.num 42.5
    | _ -> B.object_ [ (Ast.PN_ident "a", B.int 1) ]

(* Random values for the "normal conditions" part of §3.3. *)
let random_value (rng : Cutil.Rng.t) : Ast.expr =
  match Cutil.Rng.int rng 8 with
  | 0 -> B.int (Cutil.Rng.int rng 100 - 50)
  | 1 -> B.num (Cutil.Rng.float rng 100.0)
  | 2 -> B.str (String.init (Cutil.Rng.int rng 6 + 1) (fun _ -> Char.chr (97 + Cutil.Rng.int rng 26)))
  | 3 -> B.bool (Cutil.Rng.bool rng)
  | 4 -> B.array [ B.int (Cutil.Rng.int rng 10); B.int (Cutil.Rng.int rng 10) ]
  | 5 -> B.null
  | 6 -> B.int (Cutil.Rng.int rng 100000)
  | _ -> B.undefined ()

type t = {
  db : Specdb.Db.t;
  rng : Cutil.Rng.t;
  values : (string, Ast.expr option) Hashtbl.t;
      (* each distinct boundary-value text, parsed once *)
}

(* Mutants kept per source program. *)
let max_mutants = 16

let create ?(seed = 2) ?(db = Lazy.force Specdb.Db.standard) () : t =
  { db; rng = Cutil.Rng.create seed; values = Hashtbl.create 64 }

(* A boundary value as an expression: a copy of its memoised parse with
   fresh node ids, so a program holding several copies keeps its ids
   unique. *)
let expr_of_value (t : t) (v : string) : Ast.expr option =
  let parsed =
    match Hashtbl.find_opt t.values v with
    | Some e -> e
    | None ->
        let e = parse_value v in
        Hashtbl.replace t.values v e;
        e
  in
  Option.map Builder.refresh_expr parsed

(* Generated programs frequently reference identifiers they never declare
   (the model glues fragments from different training programs). Binding
   those names to synthesized values is part of "embedding test data into
   the JS code by assigning values to variables" (§3.3) and is what makes a
   generated function body actually executable. The scope resolver yields
   exactly the unbound names, so a parameter shadowing a global no longer
   suppresses the binding the call site needs. *)
let bind_free_vars (t : t) (p : Ast.program) : Ast.program =
  match Analysis.Scope.free_variables p with
  | [] -> p
  | free ->
      (* prefer a type-appropriate value when the call sites reveal how the
         name is used: receivers get a value of the API's receiver type,
         arguments a value matching the spec parameter type *)
      let sites = Visit.call_sites p in
      let preferred (n : string) : Ast.expr option =
        List.find_map
          (fun cs ->
            match Specdb.Db.lookup t.db cs.Visit.cs_callee with
            | [] -> None
            | entry :: _ ->
                if cs.Visit.cs_receiver = Some n then
                  Some (receiver_value entry)
                else
                  List.find_map
                    (fun (i, (arg : Ast.expr)) ->
                      match (arg.Ast.e, List.nth_opt entry.Specdb.Spec_ast.e_params i) with
                      | Ast.Ident m, Some sp when m = n -> (
                          match sp.Specdb.Spec_ast.p_type with
                          | Specdb.Spec_ast.Tinteger -> Some (B.int (Cutil.Rng.int t.rng 10))
                          | Specdb.Spec_ast.Tnumber -> Some (B.num (Cutil.Rng.float t.rng 10.0))
                          | Specdb.Spec_ast.Tstring -> Some (B.str "ab")
                          | Specdb.Spec_ast.Tboolean -> Some (B.bool (Cutil.Rng.bool t.rng))
                          | _ -> None)
                      | _ -> None)
                    (List.mapi (fun i a -> (i, a)) cs.Visit.cs_args))
          sites
      in
      let decls =
        List.map
          (fun n ->
            let v =
              match preferred n with
              | Some v -> v
              | None -> random_value t.rng
            in
            B.var n v)
          free
      in
      { p with Ast.prog_body = decls @ p.Ast.prog_body }

(* Generated function bodies frequently compute an API result and then
   discard it (return some other variable), which would make a conformance
   deviation invisible to differential testing. Comfort "generates code to
   call functions with supplied parameters and print out the results"
   (§3.3); this harness makes every known-API call observable by recording
   its value: each call expression [C] becomes [__obs[__obs.length] = C]
   (an assignment evaluates to its right-hand side, so program semantics
   are unchanged) and the recorded values are printed at the end. *)
let observe_calls (db : Specdb.Db.t) (p : Ast.program) : Ast.program =
  let known_call (x : Ast.expr) =
    match x.Ast.e with
    | Ast.Call (f, _) | Ast.New (f, _) -> (
        match Visit.callee_path f with
        | Some path when path <> [] ->
            let callee = List.nth path (List.length path - 1) in
            callee <> "print" && Specdb.Db.lookup db callee <> []
        | _ -> false)
    | _ -> false
  in
  let any_known =
    let acc = ref false in
    Visit.iter_program ~fe:(fun x -> if known_call x then acc := true) p;
    !acc
  in
  if not any_known then p
  else begin
    let wrapped =
      Transform.map_program
        ~fe:(fun x ->
          if known_call x then
            B.assign
              (B.index (B.ident "__obs") (B.field (B.ident "__obs") "length"))
              x
          else x)
        p
    in
    let prologue = [ B.var "__obs" (B.array []) ] in
    let epilogue =
      [
        B.s
          (Ast.For
             ( Some (Ast.FI_decl (Ast.Var, [ ("__i", Some (B.int 0)) ])),
               Some
                 (B.binary Ast.Lt (B.ident "__i")
                    (B.field (B.ident "__obs") "length")),
               Some (B.e (Ast.Update (Ast.Incr, false, B.ident "__i"))),
               B.block [ B.print (B.index (B.ident "__obs") (B.ident "__i")) ] ));
      ]
    in
    { wrapped with Ast.prog_body = prologue @ wrapped.Ast.prog_body @ epilogue }
  end

(* Known top-level function definitions: (name, params, body call sites). *)
let toplevel_functions (p : Ast.program) : (string * string list) list =
  List.filter_map
    (fun (st : Ast.stmt) ->
      match st.Ast.s with
      | Ast.Func_decl { fname = Some n; params; _ } -> Some (n, params)
      | Ast.Var_decl (_, [ (n, Some { Ast.e = Ast.Func f; _ }) ]) ->
          Some (n, f.Ast.params)
      | Ast.Var_decl (_, [ (n, Some { Ast.e = Ast.Arrow f; _ }) ]) ->
          Some (n, f.Ast.params)
      | _ -> None)
    p.Ast.prog_body

let has_call_to (p : Ast.program) (fname : string) : bool =
  List.exists
    (fun cs -> cs.Visit.cs_path = [ fname ])
    (Visit.call_sites p)

(* Map each parameter of enclosing function [params] to the spec boundary
   values it should take, by matching call-site arguments that are plain
   identifiers against API parameter positions. *)
let param_boundaries (db : Specdb.Db.t) (p : Ast.program)
    (params : string list) :
    (string * (Specdb.Spec_ast.entry * Specdb.Spec_ast.param) list) list
    * Specdb.Spec_ast.entry option =
  let sites = Visit.call_sites p in
  let assoc : (string, (Specdb.Spec_ast.entry * Specdb.Spec_ast.param) list) Hashtbl.t =
    Hashtbl.create 8
  in
  let receiver_entry = ref None in
  List.iter
    (fun cs ->
      match Specdb.Db.lookup db cs.Visit.cs_callee with
      | [] -> ()
      | entry :: _ ->
          if !receiver_entry = None then receiver_entry := Some (entry, cs.Visit.cs_receiver);
          List.iteri
            (fun i (arg : Ast.expr) ->
              match (arg.Ast.e, List.nth_opt entry.Specdb.Spec_ast.e_params i) with
              | Ast.Ident name, Some sp when List.mem name params ->
                  let prev = Option.value (Hashtbl.find_opt assoc name) ~default:[] in
                  Hashtbl.replace assoc name (prev @ [ (entry, sp) ])
              | _ -> ())
            cs.Visit.cs_args)
    sites;
  ( List.map
      (fun pn -> (pn, Option.value (Hashtbl.find_opt assoc pn) ~default:[]))
      params,
    Option.map fst !receiver_entry )

(* A mutant and the AST its source is the print of. *)
let draft ~api ~guided (p : Ast.program) : mutant * Ast.program =
  ({ m_source = Printer.program_to_string p; m_api = api; m_guided = guided }, p)

(* --- strategy 1: driver synthesis --- *)

let synthesize_drivers (t : t) (p : Ast.program) : (mutant * Ast.program) list =
  let funcs = toplevel_functions p in
  List.concat_map
    (fun (fname, params) ->
      if has_call_to p fname || params = [] then []
      else begin
        let bindings, recv_entry = param_boundaries t.db p params in
        (* receiver-typed params: if the function body calls
           [param.api(...)], give that param a receiver value *)
        let sites = Visit.call_sites p in
        let recv_params =
          List.filter_map
            (fun cs ->
              match (cs.Visit.cs_receiver, Specdb.Db.lookup t.db cs.Visit.cs_callee) with
              | Some r, entry :: _ when List.mem r params -> Some (r, entry)
              | _ -> None)
            sites
        in
        let api_name =
          match recv_entry with
          | Some e -> e.Specdb.Spec_ast.e_name
          | None -> (
              match bindings with
              | (_, (e, _) :: _) :: _ -> e.Specdb.Spec_ast.e_name
              | _ -> "")
        in
        (* Enumerate boundary probes one parameter at a time: each guided
           driver sets exactly one parameter to one of its spec boundary
           values while the others take neutral type-appropriate defaults;
           two purely random drivers cover the "normal conditions" side of
           §3.3. *)
        let neutral (pn : string) : Ast.expr =
          match List.assoc_opt pn recv_params with
          | Some entry -> receiver_value entry
          | None -> (
              match List.assoc_opt pn bindings with
              | Some ((_, sp) :: _) -> (
                  match sp.Specdb.Spec_ast.p_type with
                  | Specdb.Spec_ast.Tinteger -> B.int 2
                  | Specdb.Spec_ast.Tnumber -> B.num 1.5
                  | Specdb.Spec_ast.Tstring -> B.str "ab"
                  | Specdb.Spec_ast.Tboolean -> B.bool true
                  | Specdb.Spec_ast.Tobject -> (
                      (* a descriptor-shaped object is the most revealing
                         neutral companion when another parameter is being
                         probed (the Listing 1 pattern needs the pair) *)
                      match expr_of_value t "{ value: 1, configurable: true }" with
                      | Some e -> e
                      | None -> random_value t.rng)
                  | _ -> random_value t.rng)
              | _ -> random_value t.rng)
        in
        let probes : (string * string) list =
          List.concat_map
            (fun (pn, guided) ->
              List.concat_map
                (fun ((_, sp) : Specdb.Spec_ast.entry * Specdb.Spec_ast.param) ->
                  List.map (fun v -> (pn, v)) sp.Specdb.Spec_ast.p_values)
                guided)
            bindings
        in
        let plans =
          List.map (fun probe -> Some probe) probes
          @ [ None; None ] (* random drivers *)
        in
        let plans =
          List.filteri (fun i _ -> i < max_mutants) plans
        in
        List.map
          (fun plan ->
            let used_boundary = ref false in
            let decls =
              List.map
                (fun pn ->
                  let value =
                    match plan with
                    | Some (target, v) when target = pn -> (
                        match expr_of_value t v with
                        | Some e ->
                            used_boundary := true;
                            e
                        | None -> neutral pn)
                    | Some _ -> neutral pn
                    | None -> (
                        (* random driver; receivers still get their type *)
                        match List.assoc_opt pn recv_params with
                        | Some entry -> receiver_value entry
                        | None -> random_value t.rng)
                  in
                  (pn, value))
                params
            in
            let driver =
              List.map
                (fun (pn, v) -> B.var ("arg_" ^ pn) (Builder.refresh_expr v))
                decls
              @ [
                  B.var "result"
                    (B.call (B.ident fname)
                       (List.map (fun (pn, _) -> B.ident ("arg_" ^ pn)) decls));
                  B.print (B.ident "result");
                ]
            in
            let p' = { p with Ast.prog_body = p.Ast.prog_body @ driver } in
            draft ~api:api_name ~guided:!used_boundary p')
          plans
      end)
    funcs

(* --- strategy 2: variable-initialiser mutation --- *)

let mutate_var_inits (t : t) (p : Ast.program) : (mutant * Ast.program) list =
  let sites = Visit.call_sites p in
  let decls = Visit.declared_names p in
  List.concat_map
    (fun cs ->
      match Specdb.Db.lookup t.db cs.Visit.cs_callee with
      | [] -> []
      | entry :: _ ->
          List.concat
            (List.mapi
               (fun i (arg : Ast.expr) ->
                 match (arg.Ast.e, List.nth_opt entry.Specdb.Spec_ast.e_params i) with
                 | Ast.Ident name, Some sp when List.mem name decls ->
                     List.filter_map
                       (fun v ->
                         match expr_of_value t v with
                         | None -> None
                         | Some init ->
                             let p' = Transform.replace_var_init p ~name ~init in
                             Some (draft ~api:entry.Specdb.Spec_ast.e_name ~guided:true p'))
                       (List.filteri (fun j _ -> j < 3) sp.Specdb.Spec_ast.p_values)
                 | _ -> [])
               cs.Visit.cs_args))
    sites

(* --- strategy 3: in-place argument substitution --- *)

let mutate_call_args (t : t) (p : Ast.program) : (mutant * Ast.program) list =
  let sites = Visit.call_sites p in
  List.concat_map
    (fun cs ->
      match Specdb.Db.lookup t.db cs.Visit.cs_callee with
      | [] -> []
      | entry :: _ ->
          List.concat
            (List.mapi
               (fun i (arg : Ast.expr) ->
                 match List.nth_opt entry.Specdb.Spec_ast.e_params i with
                 | None -> []
                 | Some sp ->
                     List.filter_map
                       (fun v ->
                         match expr_of_value t v with
                         | None -> None
                         | Some replacement ->
                             let p' =
                               Transform.replace_expr p ~eid:arg.Ast.eid
                                 ~replacement
                             in
                             Some (draft ~api:entry.Specdb.Spec_ast.e_name ~guided:true p'))
                       (List.filteri (fun j _ -> j < 3) sp.Specdb.Spec_ast.p_values))
               cs.Visit.cs_args))
    sites

(* Algorithm 1 entry point.

   The strategies compose: driver synthesis first produces *executable*
   bases (a program whose functions are never called cannot expose
   anything); the initialiser and argument mutations are then applied to
   the first executable base, so their boundary values actually flow into
   an API call at run time. *)
let drafts (t : t) (p : Ast.program) : (mutant * Ast.program) list =
  let p = bind_free_vars t p in
  let drivers = synthesize_drivers t p in
  let bases =
    match drivers with
    | [] -> [ p ] (* program already calls its functions *)
    | (_, base) :: _ ->
        (* mutate on top of one executable base: the driver's own AST,
           which prints to its [m_source] *)
        [ base ]
  in
  let all =
    drivers
    @ List.concat_map
        (fun base -> mutate_var_inits t base @ mutate_call_args t base)
        bases
  in
  (* dedup identical sources, cap the total *)
  let seen = Hashtbl.create 16 in
  let uniq =
    List.filter
      (fun (m, _) ->
        if Hashtbl.mem seen m.m_source then false
        else begin
          Hashtbl.add seen m.m_source ();
          true
        end)
      all
  in
  List.filteri (fun i _ -> i < max_mutants) uniq

(* The observation harness goes onto the mutant's own AST, which is then
   printed once: the same text as parsing the first print back and
   printing that, without the parse and the second print. *)
let finalize (t : t) (p : Ast.program) : mutant list =
  List.map
    (fun (m, p) ->
      { m with m_source = Printer.program_to_string (observe_calls t.db p) })
    (drafts t p)

let mutants_of_program (t : t) (src : string) : mutant list =
  match Jsparse.Parser.parse_program src with
  | p -> finalize t p
  | exception Jsparse.Parser.Syntax_error _ -> []

(* The random draws all happen in [finalize], when [mutate] is called;
   each case is made, and its text parsed, only when the sequence is
   pulled. *)
let mutate (t : t) (p : Ast.program) :
    (Testcase.t * Jsinterp.Run.frontend option) Seq.t =
  Seq.map
    (fun m ->
      (* boundary-guided data is what Table 4 counts as "ECMA-262 guided
         mutation"; drivers with random data belong to the program-
         generation category *)
      let provenance =
        if m.m_guided then Testcase.P_ecma_mutated m.m_api
        else Testcase.P_generated
      in
      Testcase.make_parsed provenance m.m_source)
    (List.to_seq (finalize t p))
