(* Back-off n-gram language model with top-k sampling.

   The density-estimation substitute for the paper's fine-tuned GPT-2 (see
   DESIGN.md): the surrounding machinery — top-k next-token sampling,
   bracket-matched termination, <EOF>, length caps — follows §3.2 verbatim.
   A higher order means longer modelled dependencies; the DeepSmith baseline
   uses the same code at character level with a short context, reproducing
   the LSTM-vs-Transformer gap of Fig. 9. *)

(* One context's continuation counts, with the count-descending sort
   memoised: models are trained once and then sampled for the life of
   the process, and re-sorting the cell on every sampled token was a
   measurable slice of the campaign's generate stage. The sorted view is
   a flat array [| tok0; count0; tok1; count1; ... |] that [sample] draws
   from in place; an empty one means dirty ([candidates] only consults
   non-empty cells). The cell stays at two fields: a model holds one cell
   per distinct training context of every length, so a third field (say,
   a cached top-k list) shows up in peak RSS (DESIGN.md §13). *)
type cell = {
  mutable cc_counts : (int * int) list;  (* assoc of next-token counts *)
  mutable cc_sorted : int array;         (* memoised sorted view, flat *)
}

type t = {
  order : int;                                  (* max context length + 1 *)
  tables : (string, cell) Hashtbl.t array;
      (* tables.(k): context of length k -> its continuation cell *)
  bos : int;                                    (* synthetic begin marker *)
}

(* A context's key: two bytes per token, big-endian [id + 1], so the
   begin marker -1 is 0; one allocation, written straight from the
   window array. *)
let key_of (arr : int array) (pos : int) (len : int) : string =
  let b = Bytes.create (2 * len) in
  for i = 0 to len - 1 do
    let v = arr.(pos + i) + 1 in
    assert (v >= 0 && v <= 0xffff);
    Bytes.unsafe_set b (2 * i) (Char.unsafe_chr (v lsr 8));
    Bytes.unsafe_set b ((2 * i) + 1) (Char.unsafe_chr (v land 0xff))
  done;
  Bytes.unsafe_to_string b

let create ~order ~bos =
  {
    order;
    tables = Array.init order (fun _ -> Hashtbl.create 1024);
    bos;
  }

let bump tbl k next =
  let cell =
    match Hashtbl.find_opt tbl k with
    | Some c -> c
    | None ->
        let c = { cc_counts = []; cc_sorted = [||] } in
        Hashtbl.replace tbl k c;
        c
  in
  cell.cc_counts <-
    (match List.assoc_opt next cell.cc_counts with
    | Some n -> (next, n + 1) :: List.remove_assoc next cell.cc_counts
    | None -> (next, 1) :: cell.cc_counts);
  cell.cc_sorted <- [||]

(* Train on one token sequence (one program). *)
let add_sequence (t : t) (seq : int list) : unit =
  let padded = List.init (t.order - 1) (fun _ -> t.bos) @ seq in
  let arr = Array.of_list padded in
  let n = Array.length arr in
  for i = t.order - 1 to n - 1 do
    let next = arr.(i) in
    for k = 0 to t.order - 1 do
      (* context of length k ending right before position i *)
      bump t.tables.(k) (key_of arr (i - k) k) next
    done
  done

let sorted_view (cell : cell) : int array =
  if Array.length cell.cc_sorted = 0 then begin
    let sorted =
      List.sort
        (fun (t1, c1) (t2, c2) ->
          match compare c2 c1 with 0 -> compare t1 t2 | c -> c)
        cell.cc_counts
    in
    let a = Array.make (2 * List.length sorted) 0 in
    List.iteri
      (fun i (tok, c) ->
        a.(2 * i) <- tok;
        a.((2 * i) + 1) <- c)
      sorted;
    cell.cc_sorted <- a
  end;
  cell.cc_sorted

(* The sorted view of the longest context of [hist] the model has seen,
   backing off to shorter contexts when a context is unseen; [||] when
   even the empty context is. *)
let lookup (t : t) (hist : int array) : int array =
  let n = Array.length hist in
  let rec back_off len =
    if len < 0 then [||]
    else
      match Hashtbl.find_opt t.tables.(len) (key_of hist (n - len) len) with
      | Some cell when cell.cc_counts <> [] -> sorted_view cell
      | _ -> back_off (len - 1)
  in
  back_off (min (t.order - 1) n)

(* Top-k candidates for the longest matching context, backing off to
   shorter contexts when a context is unseen. Deterministic ordering:
   count desc, then token id. *)
let candidates (t : t) (history : int list) ~(k : int) : (int * int) list =
  let view = lookup t (Array.of_list history) in
  List.init (min k (Array.length view / 2)) (fun i ->
      (view.(2 * i), view.((2 * i) + 1)))

(* Sample the next token: a weighted draw among the top-k candidates,
   made in place on the sorted view. One [Rng.int total] and a walk that
   subtracts weights is exactly a weighted choice over the list
   [candidates] returns, so the random stream is the same. *)
let sample (t : t) (rng : Cutil.Rng.t) (history : int array) ~(k : int) : int option =
  let view = lookup t history in
  let m = min k (Array.length view / 2) in
  if m = 0 then None
  else begin
    let total = ref 0 in
    for i = 0 to m - 1 do
      total := !total + view.((2 * i) + 1)
    done;
    let r = ref (Cutil.Rng.int rng !total) in
    let i = ref 0 in
    while !r >= view.((2 * !i) + 1) do
      r := !r - view.((2 * !i) + 1);
      incr i
    done;
    Some view.(2 * !i)
  end

(* Pad the history with BOS for a fresh generation. *)
let initial_history (t : t) (prefix : int list) : int list =
  List.init (t.order - 1) (fun _ -> t.bos) @ prefix

let order (t : t) : int = t.order
