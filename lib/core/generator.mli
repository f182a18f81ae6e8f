(** The Comfort test-program generator (paper §3.2).

    Samples a seed function header, extends it with top-k language-model
    sampling, and terminates when braces match, the model emits [<EOF>], or
    the paper's cap of 5000 tokens is reached. A configurable fraction of
    syntactically invalid programs is kept to exercise engine parsers (the
    paper keeps 20%). *)

type t

(** [create ()] builds a generator around the standard Comfort model.
    @param seed          RNG seed (default 1)
    @param top_k         sampling breadth (paper: 10)
    @param keep_invalid  fraction of invalid programs retained (paper: 0.2)
    @param model         the language model (default: the order-8 BPE model) *)
val create :
  ?seed:int ->
  ?top_k:int ->
  ?keep_invalid:float ->
  ?model:Lm.Model.t ->
  unit ->
  t

(** The bracket-matching termination condition of §3.2, in the
    incremental, stateful form {!Lm.Model.generate} consumes: each call
    returns a closure carrying the brace balance across the chunks it is
    fed, and it answers [true] once the accumulated text has seen a
    brace and closed every one it opened. Build a fresh one per
    generation. *)
val brace_stop : unit -> string -> bool

(** One raw sample from the model, before any screening. *)
val sample_program : t -> string

(** Generate [n] test cases after the validity screening policy. *)
val generate : t -> n:int -> Testcase.t list

(** [generate ~n:1] for one case, with the front end its syntax check
    made ({!Testcase.make_parsed}; [None] for a kept invalid program);
    draws the same samples. [None] when every attempt was discarded. *)
val next : t -> (Testcase.t * Jsinterp.Run.frontend option) option

(** Syntactic validity rate over [n] raw samples (Fig. 9 passing rate). *)
val validity_rate : t -> n:int -> float
