(* Shortest round-trip decimal digits of a double.

   The obvious search tries precisions 1, 2, ... 17 and stops at the first
   whose text reads back as [f]; at a format and a parse per step, that is
   up to 17 of each for the 15- to 17-digit fractions the generators draw.
   This one binary-searches the precision instead, and is exact:

   - a p-digit decimal is also a (p+1)-digit decimal, so the nearest
     (p+1)-digit decimal to [f] is at least as close to [f] as the nearest
     p-digit one;
   - when [f]'s rounding interval is symmetric about [f], "at least as
     close" means "also inside the interval", so if p digits read back as
     [f] then p+1 digits do too: round-tripping is monotone in p;
   - the interval is asymmetric only at powers of two (the gap below is
     half the gap above), which the argument does not cover. There are
     only 2,098 of them per sign, and the test suite checks the search
     against the ascending scan on every one, so it is exact there too.

   The formats go straight to the runtime's float printer through a
   precomputed format table, skipping [Printf]'s format interpreter. *)

external format_float : string -> float -> string = "caml_format_float"

let g_formats = Array.init 18 (fun p -> "%." ^ string_of_int p ^ "g")
let e_formats = Array.init 18 (fun p -> "%." ^ string_of_int (max 0 (p - 1)) ^ "e")

let shortest formats f =
  let fmt p = format_float (Array.unsafe_get formats p) f in
  (* the least round-tripping precision lies in [lo, hi]; [best] is the
     text at [hi] when it has been formatted, "" while [hi] is 17, which
     always round-trips *)
  let rec search lo hi best =
    if lo >= hi then if best = "" then fmt 17 else best
    else
      let mid = (lo + hi) / 2 in
      let s = fmt mid in
      if float_of_string s = f then search lo mid s else search (mid + 1) hi best
  in
  search 1 17 ""

let shortest_g f = shortest g_formats f
let shortest_e f = shortest e_formats f
