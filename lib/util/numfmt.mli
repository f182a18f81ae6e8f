(** Shortest round-trip decimal digits of a double.

    [shortest_g f] is [Printf.sprintf "%.*g" p f] and [shortest_e f] is
    [Printf.sprintf "%.*e" (p - 1) f], both at the least precision [p] in
    1..17 whose text reads back as [f] (17 when none does). The two share
    their digits: only the layout differs. [f] must be finite and
    non-zero. *)

val shortest_g : float -> string
val shortest_e : float -> string
