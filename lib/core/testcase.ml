(* Test cases: a JS program plus how it came to be.

   The provenance tag drives Table 4 (program-generation bugs vs
   ECMA-262-guided data-generation bugs) and names the originating fuzzer
   in the comparison experiments. *)

type provenance =
  | P_generated              (** straight from the language model (§3.2) *)
  | P_ecma_mutated of string (** Algorithm 1 mutant; payload = API name *)
  | P_seed                   (** handwritten/baseline seed *)
  | P_fuzzer of string       (** produced by a named baseline fuzzer *)

let provenance_to_string = function
  | P_generated -> "generated"
  | P_ecma_mutated api -> "ecma-mutated:" ^ api
  | P_seed -> "seed"
  | P_fuzzer name -> "fuzzer:" ^ name

type t = {
  tc_id : int;
  tc_source : string;
  tc_provenance : provenance;
  tc_syntax_valid : bool;  (** verdict of the JSHint-substitute check *)
}

(* Process-wide case id source. *)
let counter = Atomic.make 0

let make_parsed (provenance : provenance) (source : string) :
    t * Jsast.Ast.program option =
  let parse = Result.to_option (Jsparse.Parser.check_syntax source) in
  ( {
      tc_id = Atomic.fetch_and_add counter 1 + 1;
      tc_source = source;
      tc_provenance = provenance;
      tc_syntax_valid = Option.is_some parse;
    },
    parse )

let make ?(provenance = P_generated) (source : string) : t =
  fst (make_parsed provenance source)

let is_ecma_guided (tc : t) =
  match tc.tc_provenance with P_ecma_mutated _ -> true | _ -> false
