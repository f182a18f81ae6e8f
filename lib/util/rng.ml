(* Deterministic pseudo-random number generator (splitmix64).

   Every stochastic component of the reproduction (language-model sampling,
   datagen mutation, baseline fuzzers, campaign scheduling) draws from an
   explicit [t] so that experiments are reproducible from a single integer
   seed, independently of OCaml's global [Random] state. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* splitmix64 step; see Steele, Lea & Flood, OOPSLA 2014. *)
let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Derive an independent stream; used to give each fuzzing worker its own
   generator without correlating their draws. *)
let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod n

let float t x = Float.of_int (bits t) /. Float.of_int (1 lsl 62 - 1) *. x

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* True with probability [p]. *)
let chance t p = float t 1.0 < p

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))
