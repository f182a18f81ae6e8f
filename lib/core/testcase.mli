(** Test cases: a JS program plus its provenance.

    The provenance tag drives Table 4 of the paper (bugs found by test
    program generation vs by ECMA-262-guided data generation) and names the
    originating fuzzer in the comparison experiments. *)

type provenance =
  | P_generated              (** straight from the language model (§3.2),
                                 or a mutant carrying only random data *)
  | P_ecma_mutated of string (** Algorithm 1 mutant that used spec boundary
                                 values; payload = the guiding API name *)
  | P_seed                   (** handwritten seed *)
  | P_fuzzer of string       (** produced by a named baseline fuzzer *)

val provenance_to_string : provenance -> string

type t = {
  tc_id : int;              (** unique per process *)
  tc_source : string;       (** JS source text *)
  tc_provenance : provenance;
  tc_syntax_valid : bool;   (** verdict of the JSHint-substitute check *)
}

(** Wrap a source string, assigning an id and checking syntax. *)
val make : ?provenance:provenance -> string -> t

(** {!make}, also returning the front end the syntax check made: the
    source's {!Engines.Engine.Frontend.base_parse}, [Some] exactly when
    the case is valid. The screen reads its program ({!program_of}) and
    an in-process sweep reuses it as its standard base front end. *)
val make_parsed : provenance -> string -> t * Jsinterp.Run.frontend option

(** The program of a {!make_parsed} front end. *)
val program_of : Jsinterp.Run.frontend option -> Jsast.Ast.program option

(** Was this case produced with specification boundary values? *)
val is_ecma_guided : t -> bool
