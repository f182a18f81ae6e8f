(** Identical-miscompilation filter (paper §3.6, Figure 6).

    A three-layer decision tree — engine, then API function, then observed
    miscompilation behaviour. A deviation whose path already has a leaf is
    classified as a repeat of a known bug; otherwise a new leaf grows. *)

type t

val create : unit -> t

(** Classify one deviation; grows the tree on [`New_bug]. A deviation on a
    test case with no recognised API lands in the "None" second-layer node,
    as in the paper's Figure 6. *)
val classify :
  t ->
  engine:string ->
  api:string option ->
  behavior:string ->
  [ `New_bug | `Seen_before ]

val filtered_count : t -> int
