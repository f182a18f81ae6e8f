(** Byte-pair-encoding tokenizer (paper §3.2).

    Pre-tokenization splits source into word runs, operator runs, single
    punctuation and whitespace; merges are learned inside word runs only —
    common keywords become whole tokens, rare identifiers break into
    subwords, exactly as the paper describes. *)

type token = string

type t

(** Learn [n_merges] (default 200) merges from a training text. *)
val learn : ?n_merges:int -> string -> t

(** Encode text as token ids. Each pre-token is encoded on its own, so
    [decode (encode t s)] is [s] with every newline run collapsed to one
    ["\n"]. *)
val encode : t -> string -> int list

val decode : t -> int list -> string

(** The id of the dedicated [<EOF>] termination symbol. *)
val eof_id : t -> int

(** Look up a token's surface string. *)
val token_of : t -> int -> string option

(** Character-level "tokenizer" for the DeepSmith baseline. *)
val char_tokenizer : unit -> t

val encode_chars : t -> string -> int list
