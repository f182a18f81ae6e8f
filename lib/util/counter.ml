(* Named process-wide counts — see counter.mli. A handle is the counter
   itself, so [incr] is one field update; the registry is an array of
   handles, grown only while modules initialise. *)

type t = { name : string; index : int; mutable n : int }

let all : t array ref = ref [||]

let make name =
  if Array.exists (fun c -> String.equal c.name name) !all then
    invalid_arg ("Counter.make: duplicate counter " ^ name);
  let c = { name; index = Array.length !all; n = 0 } in
  all := Array.append !all [| c |];
  c

let incr c = c.n <- c.n + 1
let add c k = c.n <- c.n + k
let get c = c.n
let snapshot () = Array.map (fun c -> c.n) !all
let since s = Array.mapi (fun i c -> c.n - s.(i)) !all

let absorb delta =
  if Array.length delta <> Array.length !all then
    invalid_arg "Counter.absorb: vector length differs from the registry";
  Array.iteri (fun i d -> add !all.(i) d) delta

let at v c = v.(c.index)
let to_list () = Array.to_list (Array.map (fun c -> (c.name, c.n)) !all)
