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
let counter = ref 0

(* The syntax check is the sweep's standard base parse
   ([Engine.Frontend.base_parse]): the source is valid under the standard
   options exactly when that parse succeeds without leaning on a quirk
   acceptance. *)
let make_parsed (provenance : provenance) (source : string) :
    t * Jsinterp.Run.frontend option =
  let fe = Engines.Engine.Frontend.base_parse source in
  let valid = Engines.Engine.Frontend.parses_clean fe in
  ( {
      tc_id = (incr counter; !counter);
      tc_source = source;
      tc_provenance = provenance;
      tc_syntax_valid = valid;
    },
    if valid then Some fe else None )

let program_of (parse : Jsinterp.Run.frontend option) : Jsast.Ast.program option
    =
  match parse with
  | Some { Jsinterp.Run.fe_program = Ok p; _ } -> Some p
  | Some _ | None -> None

let make ?(provenance = P_generated) (source : string) : t =
  fst (make_parsed provenance source)

let is_ecma_guided (tc : t) =
  match tc.tc_provenance with P_ecma_mutated _ -> true | _ -> false
