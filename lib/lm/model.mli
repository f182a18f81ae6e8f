(** Trained language models over the embedded JS corpus.

    {!comfort} is the Comfort generator's model: BPE tokens with an order-8
    back-off context — the GPT-2 substitute (see DESIGN.md). {!deepsmith}
    is the baseline: character tokens with an order-4 context, standing in
    for DeepSmith's LSTM. The longer modelled context is what reproduces
    the paper's syntactic-validity gap (Fig. 9). *)

type t = {
  tokenizer : Bpe.t;
  model : Ngram.t;
  char_level : bool;
}

(** A model over BPE tokens ({!Bpe.learn}'s default 200 merges) with an
    order-[order] (default 8) context. *)
val train_bpe : ?order:int -> string list -> t

(** Memoised standard models (training is a one-off cost, as in the
    paper's 30 GPU-hours — at laptop scale). *)
val comfort : t Lazy.t
val deepsmith : t Lazy.t

val encode : t -> string -> int list

(** Sample a continuation of [prefix] with top-[k] sampling until [stop]
    accepts, [<EOF>] is produced, or [max_tokens] is hit. [stop] is an
    {e incremental} predicate: it is called once on the prefix (verdict
    ignored — at least one token is always sampled) and then once per
    appended chunk, so a stateful predicate sees the whole text exactly
    once where a whole-string rescan per token would be quadratic. Build
    a fresh predicate per call (e.g. the generator's [brace_stop ()]). *)
val generate :
  t ->
  Cutil.Rng.t ->
  prefix:string ->
  k:int ->
  max_tokens:int ->
  stop:(string -> bool) ->
  string
