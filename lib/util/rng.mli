(** Deterministic splittable pseudo-random number generator (splitmix64).

    Every stochastic component of the reproduction draws from an explicit
    [t] so that experiments replay exactly from a single integer seed. *)

type t

val create : int -> t

(** Derive an independent stream. *)
val split : t -> t

(** 62 uniform bits. *)
val bits : t -> int

(** Uniform in [\[0, n)]. @raise Invalid_argument if [n <= 0]. *)
val int : t -> int -> int

(** Uniform in [\[0, x\]]. *)
val float : t -> float -> float

val bool : t -> bool

(** True with probability [p]. *)
val chance : t -> float -> bool

val pick : t -> 'a list -> 'a

(** [sample t n l] draws up to [n] elements without replacement, in
    shuffled order. *)
val sample : t -> int -> 'a list -> 'a list
