(** ECMA-262-guided test-data generation — Algorithm 1 of the paper (§3.3).

    Takes a generated test program, finds the JS API call sites it contains,
    looks each up in the specification database, and emits mutated test
    cases whose inputs hit the boundary conditions the specification text
    mentions, plus purely random inputs for the "normal conditions" side. *)

type mutant = {
  m_source : string;
  m_api : string;   (** spec entry that guided the mutation; "" for plain drivers *)
  m_guided : bool;  (** [true] when spec boundary values were used *)
}

type t

(** @param db the specification database (default: the embedded corpus);
    pass an empty database to disable spec guidance while keeping driver
    synthesis — the ablation of DESIGN.md §4.3. *)
val create : ?seed:int -> ?db:Specdb.Db.t -> unit -> t

(** Algorithm 1 on one source program; [] when it does not parse. *)
val mutants_of_program : t -> string -> mutant list

(** {!mutants_of_program} before the observation harness, on the source's
    parse: each mutant with its AST, [m_source] being that AST's print
    (the text mutants are deduplicated on). Draws the same random
    values. *)
val drafts : t -> Jsast.Ast.program -> (mutant * Jsast.Ast.program) list

(** The observation harness: every call to a known API records its
    value, and the recorded values are printed at the end. *)
val observe_calls : Specdb.Db.t -> Jsast.Ast.program -> Jsast.Ast.program

(** [mutate t p] wraps {!mutants_of_program} of [p], a test case's parse
    (see {!Testcase.make_parsed}), into test cases with provenance
    assigned per mutant ([P_ecma_mutated] vs [P_generated]), each with
    the front end its syntax check made of the mutant's printed source. The
    random values are drawn by the call; each case is made, and parsed,
    when the sequence is pulled, so a mutant's AST lives no longer than
    its consumer holds it. Traverse it once. *)
val mutate :
  t -> Jsast.Ast.program -> (Testcase.t * Jsinterp.Run.frontend option) Seq.t
