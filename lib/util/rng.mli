(** Deterministic splittable pseudo-random number generator (splitmix64).

    Every stochastic component of the reproduction draws from an explicit
    [t] so that experiments replay exactly from a single integer seed. *)

type t

val create : int -> t
val copy : t -> t

(** Derive an independent stream. *)
val split : t -> t

val next_int64 : t -> int64
val bits : t -> int

(** Uniform in [\[0, n)]. @raise Invalid_argument if [n <= 0]. *)
val int : t -> int -> int

(** Uniform in [\[0, x\]]. *)
val float : t -> float -> float

val bool : t -> bool

(** True with probability [p]. *)
val chance : t -> float -> bool

val pick : t -> 'a list -> 'a

(** Weighted choice over positive [(weight, value)] pairs. *)
val weighted : t -> (int * 'a) list -> 'a

(** A shuffled copy. *)
val shuffle : t -> 'a array -> 'a array

(** [sample t n l] draws up to [n] elements without replacement. *)
val sample : t -> int -> 'a list -> 'a list
