(** Top-level engine entry point: source in, classified result out.

    [run] is what one "testbed" executes: it builds a fresh realm, parses
    with the engine's front-end options, evaluates with the engine's quirk
    set under a fuel budget, and classifies the outcome in the vocabulary
    of the paper's Figure 5. *)

type status =
  | Sts_normal
  | Sts_uncaught of string * string  (** error name, message *)
  | Sts_crash of string              (** simulated engine crash *)
  | Sts_timeout                      (** fuel exhausted *)

type result = {
  r_parsed : bool;
  r_parse_error : string option;
  r_status : status;
  r_output : string;        (** everything [print] emitted *)
  r_fuel_used : int;        (** execution cost, the wall-clock stand-in *)
  r_fired : Quirk.Set.t;    (** ground-truth quirks whose deviant path ran *)
  r_touched : Quirk.Set.t;
      (** quirk checkpoints the run {e consulted}, active or not — a
          superset of [r_fired], and the key of the execution-sharing
          equivalence classes (see {!shares_class}) *)
  r_coverage : Coverage.summary option;
}

val status_to_string : status -> string

val default_fuel : int

(** Cumulative interpreter executions in this process — the
    execution-side analogue of [Jsparse.Parser.parse_count]. Parse
    failures and results inherited through {!share} do not count, so a
    before/after delta measures exactly how many real evaluations a
    campaign (or the sharing layer) performed. It is the [jsinterp.runs]
    entry of {!Cutil.Counter}, which folds forked workers' counts home. *)
val run_count : unit -> int

(** Whole-pipeline campaign profiler. Disabled by default (a disabled
    probe pays one ref read); when [enabled] is set, every probe adds its
    wall-clock duration and its [Gc.allocated_bytes] delta to the
    corresponding slot.

    Two layers: {e pipeline stages} (generate, screen, sweep, vote, attr,
    reduce, fold) partition the campaign's wall clock — [time] attributes
    to the outermost active stage only (a re-entrancy flag), so their sum
    is a no-double-counting lower bound on wall. {e Interpreter
    substages} (parse, compile, realm-install, exec) nest inside
    pipeline stages, always record, and are reported as a separate
    layer. *)
module Stage : sig
  val enabled : bool ref
  val reset : unit -> unit

  type slot

  (** The pipeline stages, in campaign order. *)

  val generate : slot  (** LM program generation + mutation *)

  val screen : slot  (** reference-engine screening of raw cases *)

  val sweep : slot
  (** the 102-testbed sweep: frontend cache, class discovery probing,
      execution sharing — the interpreter substages mostly nest here *)

  val vote : slot  (** per-mode majority vote + 2t rule + deviation build *)

  val attr : slot  (** bug-filter classification + causal attribution *)

  val reduce : slot  (** test-case reduction of surfaced discoveries *)

  val fold : slot  (** report folding, timeline, checkpoint saves *)

  (** Run [f] attributed to a pipeline stage. Re-entrant calls (a stage
      probe inside an active stage probe) do not
      record — outermost wins. *)
  val time : slot -> (unit -> 'a) -> 'a

  (** (name, wall ns, allocated bytes) rows for the pipeline layer, in
      campaign order. *)
  val pipeline : unit -> (string * int * int) list

  (** Same rows for the interpreter-substage layer. *)
  val substages : unit -> (string * int * int) list
end

(** Derive front-end options from a quirk set (parser-level bugs live in
    the front end, so a quirk profile is a single source of truth). *)
val parse_opts_of :
  base:Jsparse.Parser.options -> Quirk.Set.t -> Jsparse.Parser.options

(** The outcome of one front-end pass, separable from execution so that
    testbeds whose effective parse options and mode coincide can share a
    single parse (the campaign's per-case front-end cache). *)
type frontend = {
  fe_program : (Jsast.Ast.program, string * int) Stdlib.result;
      (** parsed program, or (message, line) of the syntax error *)
  fe_fired : Quirk.Set.t;
      (** parse-stage quirks sunk by the front end, {e unfiltered};
          {!run} intersects them with the executing engine's quirk set *)
  fe_compiled : (bool, Compile.t) Hashtbl.t;
      (** slot-compiled programs cached per front end, keyed by strict
          mode; the compiled checkpoint sites consult the quirk set at run
          time, so testbeds sharing a front end and mode share one
          compilation *)
  fe_strict_sensitive : bool;
      (** the parse reached a construct whose outcome depends on the
          ambient strict flag ({!Jsparse.Parser.options}'
          [strict_sensitive_sink]). When [false] on a sloppy parse, a
          [force_strict] parse of the same source is guaranteed
          identical, so the front end can also serve strict-mode
          testbeds (the executor re-applies the mode via the compiled
          program's strict key). *)
  fe_edition_sensitive : bool;
      (** the parse reached a construct gated by an ES-edition flag
          ({!Jsparse.Parser.options}' [edition_sensitive_sink]). When
          [false] on a parse without the ES5 rejections, an ES5-profile
          parse of the same source is guaranteed identical, so the front
          end can also serve ES5 testbeds. *)
}

(** Parse once with the effective options derived from [parse_opts] and
    [quirks]. The result may be passed to {!run} for any engine whose
    effective options and mode are identical. *)
val parse_frontend :
  ?quirks:Quirk.Set.t ->
  ?parse_opts:Jsparse.Parser.options ->
  ?strict:bool ->
  string ->
  frontend

(** Execute a program.
    @param quirks     the engine's bug set (empty = conforming reference)
    @param parse_opts front-end profile (ES edition gates)
    @param strict     run as a strict-mode testbed
    @param coverage   record statement/branch/function coverage
    @param strategy   [Fast] executes the front end's compiled closure
                      (one per mode) in a copy-on-write realm with
                      recycled scratch; [Reference] tree-walks in a
                      freshly installed realm. Defaults to
                      {!Strategy.default}. Results are bit-for-bit
                      identical either way
    @param frontend   a pre-parsed front end to reuse (skips this run's
                      own parse); must have been produced with the same
                      effective options and strictness *)
val run :
  ?quirks:Quirk.Set.t ->
  ?parse_opts:Jsparse.Parser.options ->
  ?strict:bool ->
  ?fuel:int ->
  ?coverage:bool ->
  ?strategy:Strategy.t ->
  ?frontend:frontend ->
  string ->
  result

(** One interpreter execution packaged for sharing: the representative's
    result plus the quirk set it ran under and its execution-stage
    fired/touched sets (the top-level parse stage is per-member and lives
    in {!frontend}). The interpreter is deterministic given (program,
    mode, effective parse options, answers at quirk checkpoints), which is
    what makes an [exec] transferable across engines. *)
type exec = {
  ex_result : result;       (** the representative's own full result *)
  ex_quirks : Quirk.Set.t;  (** quirk set the representative ran under *)
  ex_fired : Quirk.Set.t;   (** execution-stage fired set *)
  ex_touched : Quirk.Set.t;
      (** execution-stage touched set — the execution-sharing class key
          ({!shares_class}) *)
  ex_reparsed : bool;
      (** the execution parsed source at run time (the global [eval]) under
          its engine's effective parse options. Such a run depends on the
          parse group as well as on the touched checkpoints — a construct
          the options reject raises without consulting any checkpoint — so
          it may only be lent to engines with the same parse key *)
}

(** Like {!run}, but keep the sharing evidence. [run] is [ex_result]. *)
val run_exec :
  ?quirks:Quirk.Set.t ->
  ?parse_opts:Jsparse.Parser.options ->
  ?strict:bool ->
  ?fuel:int ->
  ?coverage:bool ->
  ?strategy:Strategy.t ->
  ?frontend:frontend ->
  string ->
  exec

(** Does an engine carrying [quirks] belong to [ex]'s behavioural
    equivalence class? True iff [quirks] agrees with [ex_quirks] at every
    checkpoint in [ex_touched]. The check is self-validating: agreeing on
    every consulted checkpoint forces identical control flow, so a member
    cannot reach a checkpoint the representative did not touch. Callers
    must also match the front end (the parsed program), the mode and the
    fuel budget, and — when [ex_reparsed] — the effective parse options;
    see [Engines.Engine.Exec]. *)
val shares_class : quirks:Quirk.Set.t -> exec -> bool

(** The result a class member inherits from its representative: execution
    verbatim, with only the parse-stage quirk filter recomputed for the
    member's own quirk set. Equals what {!run} would have produced, field
    for field. *)
val share : frontend:frontend -> quirks:Quirk.Set.t -> exec -> result

(** The first field on which two results differ ("output", "fuel",
    "touched", ...), [None] when they agree in every field — the
    field-by-field comparison behind the Fast = Reference checks. *)
val differing_field : result -> result -> string option

(** Convenience: printed output of a run on the conforming engine. *)
val output_of : ?quirks:Quirk.Set.t -> ?strict:bool -> ?fuel:int -> string -> string
