(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the reproduction draws from an explicit
    [t] so that experiments replay exactly from a single integer seed. *)

type t

val create : int -> t

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
