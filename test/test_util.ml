(* Utility library: RNG determinism and distribution, table rendering. *)

open Helpers
module Rng = Cutil.Rng

let rng_determinism () =
  let seq seed = List.init 20 (fun _ -> Rng.int (Rng.create seed) 1000) |> List.hd in
  Alcotest.(check int) "same seed same draw" (seq 7) (seq 7);
  let r = Rng.create 7 in
  let a = Rng.int r 1000 and b = Rng.int r 1000 in
  Alcotest.(check bool) "stream advances" true (a <> b || Rng.int r 1000 <> b)

let rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 2000 do
    let v = Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of bounds: %d" v;
    let f = Rng.float r 2.5 in
    if f < 0.0 || f > 2.5 then Alcotest.failf "float out of bounds: %f" f
  done

let rng_distribution () =
  let r = Rng.create 99 in
  let counts = Array.make 4 0 in
  for _ = 1 to 4000 do
    let v = Rng.int r 4 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 800 || c > 1200 then
        Alcotest.failf "bucket %d badly skewed: %d/4000" i c)
    counts

let rng_helpers () =
  let r = Rng.create 11 in
  let picked = Rng.pick r [ 1; 2; 3 ] in
  Alcotest.(check bool) "pick from list" true (List.mem picked [ 1; 2; 3 ]);
  Alcotest.check_raises "pick from an empty list"
    (Invalid_argument "Rng.pick: empty list") (fun () -> ignore (Rng.pick r []))

let table_render () =
  let t =
    Cutil.Table.create ~aligns:[ Cutil.Table.Left; Cutil.Table.Right ]
      [ "name"; "count" ]
  in
  Cutil.Table.add_row t [ "alpha"; "1" ];
  Cutil.Table.add_row t [ "b"; "22" ];
  let s = Cutil.Table.render t in
  Alcotest.(check bool) "has header" true (Str_contains.contains s "name");
  Alcotest.(check bool) "right aligned" true (Str_contains.contains s "|     1 |");
  Alcotest.(check bool) "left aligned" true (Str_contains.contains s "| alpha |");
  match
    try
      Cutil.Table.add_row t [ "only-one" ];
      None
    with Invalid_argument m -> Some m
  with
  | Some _ -> ()
  | None -> Alcotest.fail "arity mismatch should raise"

let suite =
  [
    case "rng determinism" rng_determinism;
    case "rng bounds" rng_bounds;
    case "rng distribution" rng_distribution;
    case "rng helpers" rng_helpers;
    case "table rendering" table_render;
  ]
