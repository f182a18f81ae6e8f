(** Back-off n-gram language model with top-k sampling — the density
    estimator standing in for the paper's fine-tuned GPT-2. *)

type t

(** [create ~order ~bos] builds an empty model with contexts up to
    [order - 1] tokens, padded with the synthetic begin marker [bos]. *)
val create : order:int -> bos:int -> t

(** Train on one token sequence (one program). *)
val add_sequence : t -> int list -> unit

(** Top-[k] continuations of the longest matching context, backing off to
    shorter contexts when unseen. Deterministic order: count descending,
    then token id. *)
val candidates : t -> int list -> k:int -> (int * int) list

(** Weighted draw among the top-[k] candidates of the history held in
    the array (oldest first), as {!candidates} would list them; [None] at
    a dead end. Token ids must lie in [-1, 65534]. *)
val sample : t -> Cutil.Rng.t -> int array -> k:int -> int option

(** Pad a prompt with begin markers for a fresh generation. *)
val initial_history : t -> int list -> int list

(** The model's order: {!candidates} never consults more than
    [order t - 1] trailing tokens of history, so generation loops may
    keep a context window of that length instead of the full history. *)
val order : t -> int
