(* The five baseline fuzzers of §4.4, behind the same [Campaign.fuzzer]
   interface as Comfort. Each is a faithful miniature of the corresponding
   system's test-case generation strategy:

   - DeepSmith: DNN generation (character-level LM here) + random inputs;
   - Fuzzilli: coverage-guided mutation over a corpus seeded from scratch;
   - CodeAlchemist: semantics-aware assembly of def/use-annotated bricks;
   - DIE: aspect-preserving mutation (types and structure kept);
   - Montage: LM-guided replacement of AST subtrees in seed programs. *)

open Jsast
module B = Builder
module Rng = Cutil.Rng

(* The parse of a seed or a generated source; [None] when it does not
   parse. *)
let parse_opt (src : string) : Ast.program option =
  match Jsparse.Parser.parse_program src with
  | p -> Some p
  | exception Jsparse.Parser.Syntax_error _ -> None

(* A case with the parse its syntax check made, as a pull yields it. *)
let mk_case name src =
  Comfort.Testcase.make_parsed (Comfort.Testcase.P_fuzzer name) src

(* A fuzzer whose every pull builds a case with [case ()]. *)
let fuzzer name ~seed ~raw case =
  Comfort.Campaign.make_fuzzer ~name ~seed ~raw (fun () -> Some (case ()))

(* Synthesize a naive driver for uncalled top-level functions: random
   argument values, print the result. This is the "random input generation
   relying on typing information" the paper ascribes to prior fuzzers. *)
let naive_driver (rng : Rng.t) (p : Ast.program) : Ast.program =
  let funcs =
    List.filter_map
      (fun (st : Ast.stmt) ->
        match st.Ast.s with
        | Ast.Func_decl { fname = Some n; params; _ } -> Some (n, params)
        | Ast.Var_decl (_, [ (n, Some { Ast.e = Ast.Func f; _ }) ]) ->
            Some (n, f.Ast.params)
        | _ -> None)
      p.Ast.prog_body
  in
  let called p name =
    List.exists (fun cs -> cs.Visit.cs_path = [ name ]) (Visit.call_sites p)
  in
  let rand_lit () =
    match Rng.int rng 6 with
    | 0 -> B.int (Rng.int rng 20 - 10)
    | 1 -> B.str (String.init (Rng.int rng 4 + 1) (fun _ -> Char.chr (97 + Rng.int rng 26)))
    | 2 -> B.bool (Rng.bool rng)
    | 3 -> B.array [ B.int (Rng.int rng 9); B.int (Rng.int rng 9) ]
    | 4 -> B.num (Rng.float rng 10.0)
    | _ -> B.undefined ()
  in
  let driver =
    List.concat_map
      (fun (name, params) ->
        if called p name then []
        else
          [
            B.expr_stmt
              (B.call (B.ident "print")
                 [ B.call (B.ident name) (List.map (fun _ -> rand_lit ()) params) ]);
          ])
      funcs
  in
  (* bind leftover free identifiers so the program can execute *)
  let p = { p with Ast.prog_body = p.Ast.prog_body @ driver } in
  match Analysis.Scope.free_variables p with
  | [] -> p
  | free ->
      let decls = List.map (fun n -> B.var n (rand_lit ())) free in
      { p with Ast.prog_body = decls @ p.Ast.prog_body }

(* --- DeepSmith --- *)

let deepsmith ?(seed = 21) () : Comfort.Campaign.fuzzer =
  let rng = Rng.create seed in
  let model = Lazy.force Lm.Model.deepsmith in
  let gen () =
    let header = Rng.pick rng Lm.Js_corpus.seed_headers in
    Lm.Model.generate model rng ~prefix:header ~k:10 ~max_tokens:3000
      ~stop:(Comfort.Generator.brace_stop ())
  in
  fuzzer "DeepSmith" ~seed
    ~raw:(Some (fun n -> List.init n (fun _ -> gen ())))
    (fun () ->
      let src = gen () in
      let src =
        match parse_opt src with
        | Some p -> Mutate.to_src (naive_driver rng p)
        | None -> src
      in
      mk_case "DeepSmith" src)

(* --- Fuzzilli --- *)

(* Coverage proxy: the structural/behavioural feature set a successfully
   executed program exhibits. New features admit the mutant to the corpus,
   approximating edge-coverage-guided corpus growth. *)
let features_of (p : Ast.program) : string list =
  let feats = ref [] in
  List.iter
    (fun cs -> feats := ("call:" ^ String.concat "." cs.Visit.cs_path) :: !feats)
    (Visit.call_sites p);
  Visit.iter_program
    ~fe:(fun x ->
      match x.Ast.e with
      | Ast.Binary (op, _, _) -> feats := ("op:" ^ Ast.binop_to_string op) :: !feats
      | Ast.Lit (Ast.Lregexp _) -> feats := "regexp" :: !feats
      | _ -> ())
    ~fs:(fun st ->
      let tag =
        match st.Ast.s with
        | Ast.For _ -> "for"
        | Ast.While _ -> "while"
        | Ast.Try _ -> "try"
        | Ast.Switch _ -> "switch"
        | Ast.For_in _ -> "forin"
        | _ -> ""
      in
      if tag <> "" then feats := ("stmt:" ^ tag) :: !feats)
    p;
  !feats

let fuzzilli ?(seed = 22) () : Comfort.Campaign.fuzzer =
  let rng = Rng.create seed in
  let corpus =
    ref (List.filter_map parse_opt (Seeds.common @ Seeds.fuzzilli_extra))
  in
  let covered : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun p ->
      (* the features of the printed seed's parse, as a case's are *)
      Option.iter
        (fun p -> List.iter (fun f -> Hashtbl.replace covered f ()) (features_of p))
        (parse_opt (Mutate.to_src p)))
    !corpus;
  let mutate_once () =
    let parent = Rng.pick rng !corpus in
    let child =
      match Rng.int rng 4 with
      | 0 -> Mutate.splice rng ~host:parent ~donor:(Rng.pick rng !corpus)
      | 1 -> Mutate.mutate_literal rng parent
      | 2 -> Mutate.mutate_operator rng parent
      | _ -> Mutate.drop_statement rng parent
    in
    let ((_, parse) as case) = mk_case "Fuzzilli" (Mutate.to_src child) in
    (* corpus admission: parses under the standard options and exhibits a
       new feature. The draw's front end exists only for a case whose
       syntax check passed, so a mutant with features parses *)
    let feats =
      match Comfort.Testcase.program_of parse with
      | Some p -> features_of p
      | None -> []
    in
    if List.exists (fun f -> not (Hashtbl.mem covered f)) feats then begin
      List.iter (fun f -> Hashtbl.replace covered f ()) feats;
      corpus := child :: !corpus
    end;
    case
  in
  fuzzer "Fuzzilli" ~seed ~raw:None mutate_once

(* --- CodeAlchemist --- *)

(* A brick is a top-level statement tagged with the variables it defines
   and the non-builtin names it uses. *)
type brick = { b_stmt : Ast.stmt; b_defs : string list; b_uses : string list }

let bricks_of_seeds () : brick list =
  List.concat_map
    (fun src ->
      match parse_opt src with
      | None -> []
      | Some p ->
          List.map
            (fun (st : Ast.stmt) ->
              let mini = { p with Ast.prog_body = [ st ] } in
              {
                b_stmt = st;
                b_defs = Visit.declared_names mini;
                b_uses = Analysis.Scope.free_variables mini;
              })
            p.Ast.prog_body)
    (Seeds.common @ Seeds.codealchemist_extra)

let codealchemist ?(seed = 23) () : Comfort.Campaign.fuzzer =
  let rng = Rng.create seed in
  let bricks = bricks_of_seeds () in
  let assemble () =
    let defined : (string, unit) Hashtbl.t = Hashtbl.create 8 in
    let chosen = ref [] in
    let target = 3 + Rng.int rng 6 in
    let tries = ref 0 in
    while List.length !chosen < target && !tries < 60 do
      incr tries;
      let b = Rng.pick rng bricks in
      (* def-before-use constraint: every use must already be defined *)
      if List.for_all (Hashtbl.mem defined) b.b_uses then begin
        chosen := B.refresh_stmt b.b_stmt :: !chosen;
        List.iter (fun d -> Hashtbl.replace defined d ()) b.b_defs
      end
    done;
    Mutate.to_src (B.program (List.rev !chosen))
  in
  fuzzer "CodeAlchemist" ~seed ~raw:None (fun () -> mk_case "CodeAlchemist" (assemble ()))

(* --- DIE --- *)

let die ?(seed = 24) () : Comfort.Campaign.fuzzer =
  let rng = Rng.create seed in
  let seeds =
    List.filter_map parse_opt (Seeds.common @ Seeds.die_extra)
  in
  let mutate_once () =
    let parent = Rng.pick rng seeds in
    let rounds = 1 + Rng.int rng 3 in
    let child = ref parent in
    for _ = 1 to rounds do
      child :=
        if Rng.chance rng 0.7 then
          Mutate.mutate_literal ~preserve_type:true rng !child
        else Mutate.mutate_operator rng !child
    done;
    Mutate.to_src !child
  in
  fuzzer "DIE" ~seed ~raw:None (fun () -> mk_case "DIE" (mutate_once ()))

(* --- Montage --- *)

let montage ?(seed = 25) () : Comfort.Campaign.fuzzer =
  let rng = Rng.create seed in
  let model = Lazy.force Lm.Model.comfort in
  let seeds =
    List.filter_map parse_opt (Seeds.common @ Seeds.montage_extra)
  in
  (* an LM-generated fragment: the first statement of a fresh sample *)
  let lm_fragment () : Ast.stmt option =
    let header = Rng.pick rng Lm.Js_corpus.seed_headers in
    let src =
      Lm.Model.generate model rng ~prefix:header ~k:10 ~max_tokens:500
        ~stop:(Comfort.Generator.brace_stop ())
    in
    match parse_opt src with
    | Some { Ast.prog_body = st :: _; _ } -> Some (B.refresh_stmt st)
    | _ -> None
  in
  let mutate_once () =
    let parent = Rng.pick rng seeds in
    match (lm_fragment (), parent.Ast.prog_body) with
    | Some frag, (_ :: _ as body) ->
        let victim = Rng.int rng (List.length body) in
        let body =
          List.mapi (fun i st -> if i = victim then frag else st) body
        in
        Mutate.to_src { parent with Ast.prog_body = body }
    | _ -> Mutate.to_src parent
  in
  fuzzer "Montage" ~seed ~raw:None (fun () -> mk_case "Montage" (mutate_once ()))

let all ?(seed = 20) () : Comfort.Campaign.fuzzer list =
  [
    deepsmith ~seed:(seed + 1) ();
    fuzzilli ~seed:(seed + 2) ();
    codealchemist ~seed:(seed + 3) ();
    die ~seed:(seed + 4) ();
    montage ~seed:(seed + 5) ();
  ]
