(** Ground-truth metadata for every injected quirk: the oracle against which
    fuzzing campaigns are scored.

    The metadata mirrors what the paper reports per bug — the JS API
    involved, its object type (Table 5), the affected compiler component
    (Fig. 7), developer confirmation status (Tables 2-3), Test262
    acceptance, and which part of the pipeline is in principle needed to
    expose it (Table 4). *)

type component =
  | CodeGen
  | Implementation
  | Parser
  | RegexEngine
  | Optimizer
  | StrictModeOnly

val component_to_string : component -> string

type status =
  | Fixed              (** confirmed and fixed by developers *)
  | Verified           (** confirmed, fix pending *)
  | Under_discussion
  | Rejected

type origin = [ `Gen | `Ecma ]

type meta = {
  quirk : Jsinterp.Quirk.t;
  api : string;           (** e.g. "String.prototype.substr" *)
  object_type : string;   (** Table 5 grouping *)
  component : component;
  status : status;
  newly_discovered : bool;
  test262_accepted : bool;
  origin : origin;
  strict_only : bool;
}

(** The metadata of a quirk. Every quirk has one entry; totality is
    asserted at load time.
    @raise Invalid_argument on a quirk missing from the catalogue. *)
val find : Jsinterp.Quirk.t -> meta
