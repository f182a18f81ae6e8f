(** How a sweep is executed. Reports are byte-identical under both
    strategies; they differ only in cost. [Reference] is the oracle that
    [Fast] is checked against (DESIGN.md, "Execution strategy"). It is not
    the conforming reference {e engine} (the quirk-free configuration
    that [Engines.Engine.run_reference] runs): either strategy can run
    any engine, that one included. *)

type t =
  | Reference
      (** direct sweep with no execution sharing, the tree-walking
          interpreter, a realm built by [Builtins.install] for every
          execution, and fresh execution scratch *)
  | Fast
      (** execution sharing across behavioural equivalence classes, one
          compiled closure per (front end, mode) whose checkpoint sites
          consult the quirk set at run time, copy-on-write realms and
          recycled execution scratch *)

val to_string : t -> string

(** The given strategy — how an optional [?strategy] argument is
    resolved. When it is absent: [Reference] when any of
    COMFORT_NO_SHARE, COMFORT_NO_RESOLVE, COMFORT_NO_REACH or
    COMFORT_NO_SPECIALIZE is set to a non-empty value, else [Fast]. This
    is the only reader of those variables, and it reads them only when
    the argument is absent. The four names are kept only because
    perfbench's reference-path recording sets them. *)
val value : t option -> t
