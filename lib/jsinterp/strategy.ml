(* The execution strategy: one oracle, one fast path. *)

type t = Reference | Fast

let to_string = function Reference -> "reference" | Fast -> "fast"

(* Any one of the four variables selects the oracle. There is one oracle,
   so one name would do; the four are kept only because perfbench's
   reference-path recording sets them. *)
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
