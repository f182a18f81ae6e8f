(** Named process-wide counts, in one registry. A forked campaign worker
    ships {!since} of a {!snapshot} home as one [int array] and the
    driver {!absorb}s it, so every count crosses the process boundary
    with no code of its own. Ids are not counts and stay out. Counters
    register at module initialisation, in link order, so a vector's
    positions hold only within one binary. *)

type t

val make : string -> t
(** @raise Invalid_argument when the name is already registered. *)

val incr : t -> unit
val add : t -> int -> unit
val get : t -> int

val snapshot : unit -> int array
(** Every count, in registration order. *)

val since : int array -> int array
(** The current {!snapshot} minus an earlier one. *)

val absorb : int array -> unit
(** Add a vector to the counts. @raise Invalid_argument on a length
    mismatch. *)

val at : int array -> t -> int
(** A counter's entry in a vector. *)

val to_list : unit -> (string * int) list
(** [(name, count)] pairs, in registration order. *)
