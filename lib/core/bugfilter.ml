(* Identical-miscompilation filter (paper §3.6, Fig. 6).

   A three-layer decision tree: engine -> API function -> miscompilation
   behaviour. A deviation whose (engine, api, behaviour) path already has a
   leaf is classified as a repeat of a known bug and filtered; otherwise a
   new leaf is grown and the deviation surfaces as a new bug. *)

type t = {
  engines : (string, (string, (string, unit) Hashtbl.t) Hashtbl.t) Hashtbl.t;
  mutable filtered : int;
}

let create () =
  { engines = Hashtbl.create 16; filtered = 0 }

(* The second-layer key: the API a deviation implicates. Deviations on test
   cases without any recognised API call land in the "None" node. *)
let api_key (api : string option) = Option.value api ~default:"None"

let classify (t : t) ~(engine : string) ~(api : string option)
    ~(behavior : string) : [ `New_bug | `Seen_before ] =
  let api = api_key api in
  let api_tbl =
    match Hashtbl.find_opt t.engines engine with
    | Some x -> x
    | None ->
        let x = Hashtbl.create 8 in
        Hashtbl.replace t.engines engine x;
        x
  in
  let leaf_tbl =
    match Hashtbl.find_opt api_tbl api with
    | Some x -> x
    | None ->
        let x = Hashtbl.create 4 in
        Hashtbl.replace api_tbl api x;
        x
  in
  if Hashtbl.mem leaf_tbl behavior then begin
    t.filtered <- t.filtered + 1;
    `Seen_before
  end
  else begin
    Hashtbl.replace leaf_tbl behavior ();
    `New_bug
  end

let filtered_count (t : t) = t.filtered
