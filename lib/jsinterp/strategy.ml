(* The execution strategy: one oracle, one fast path. *)

type t = Reference | Fast

let to_string = function Reference -> "reference" | Fast -> "fast"

(* The four variables are the names the benchmark's reference-path
   recording sets; any one of them selects the oracle. *)
let default () =
  let set v =
    match Sys.getenv_opt v with None | Some "" -> false | Some _ -> true
  in
  if
    List.exists set
      [
        "COMFORT_NO_SHARE";
        "COMFORT_NO_RESOLVE";
        "COMFORT_NO_REACH";
        "COMFORT_NO_SPECIALIZE";
      ]
  then Reference
  else Fast

let value = function Some s -> s | None -> default ()
