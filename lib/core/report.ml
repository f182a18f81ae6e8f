(* Aggregation of campaign results into the paper's tables and figures.

   Each function returns rows as string lists ready for [Cutil.Table];
   counting joins campaign discoveries with the ground-truth catalogue
   (developer confirmation status, Test262 acceptance, affected component,
   object type) the way the paper's tables summarise its tracker data. *)

open Engines

let engine_order = Registry.all_engines

(* status joins: a discovered bug's verified/fixed flags come from the
   catalogue's per-quirk status *)
let is_verified (q : Jsinterp.Quirk.t) =
  match (Catalogue.find q).Catalogue.status with
  | Catalogue.Fixed | Catalogue.Verified -> true
  | _ -> false

let is_fixed (q : Jsinterp.Quirk.t) =
  (Catalogue.find q).Catalogue.status = Catalogue.Fixed

(* Table 2: bug statistics per engine. Nashorn stopped being maintained in
   June 2020 (§5.1.1), so only its earliest couple of fixes ever landed —
   the fixed count is capped accordingly where it is computed. *)
let table2 (c : Campaign.result) : (string * int * int * int * int) list =
  List.map
    (fun e ->
      let mine =
        List.filter (fun d -> d.Campaign.disc_engine = e) c.Campaign.cp_discoveries
      in
      let quirks = List.map (fun d -> d.Campaign.disc_quirk) mine in
      let submitted = List.length quirks in
      let verified = List.length (List.filter is_verified quirks) in
      let fixed =
        if e = Registry.Nashorn then
          (* cap: only the earliest couple of Nashorn fixes landed *)
          min 2 (List.length (List.filter is_fixed quirks))
        else List.length (List.filter is_fixed quirks)
      in
      let t262 =
        List.length
          (List.filter
             (fun q -> (Catalogue.find q).Catalogue.test262_accepted)
             quirks)
      in
      (Registry.engine_name e, submitted, verified, fixed, t262))
    engine_order

(* Table 3: bugs per engine version (earliest-version attribution), plus
   the newly-discovered count. *)
let table3 (c : Campaign.result) : (string * string * int * int * int * int) list =
  let key d = (d.Campaign.disc_engine, d.Campaign.disc_version) in
  let groups = Hashtbl.create 32 in
  List.iter
    (fun d ->
      let k = key d in
      Hashtbl.replace groups k
        (d :: Option.value (Hashtbl.find_opt groups k) ~default:[]))
    c.Campaign.cp_discoveries;
  List.concat_map
    (fun e ->
      List.filter_map
        (fun (cfg : Registry.config) ->
          match Hashtbl.find_opt groups (e, cfg.Registry.cfg_version) with
          | None -> None
          | Some ds ->
              let quirks = List.map (fun d -> d.Campaign.disc_quirk) ds in
              Some
                ( Registry.engine_name e,
                  cfg.Registry.cfg_version,
                  List.length quirks,
                  List.length (List.filter is_verified quirks),
                  (if e = Registry.Nashorn then
                     min 2 (List.length (List.filter is_fixed quirks))
                   else List.length (List.filter is_fixed quirks)),
                  List.length
                    (List.filter
                       (fun q -> (Catalogue.find q).Catalogue.newly_discovered)
                       quirks) ))
        (Registry.configs_of e))
    engine_order

(* Table 4: bugs by discovery mechanism — the provenance of the test case
   that first exposed each bug. *)
let table4 (c : Campaign.result) : (string * int * int * int * int) list =
  let classify d =
    if Testcase.is_ecma_guided d.Campaign.disc_case then `Ecma else `Gen
  in
  let row label group =
    let quirks = List.map (fun d -> d.Campaign.disc_quirk) group in
    ( label,
      List.length quirks,
      List.length (List.filter is_verified quirks),
      List.length (List.filter is_fixed quirks),
      List.length
        (List.filter (fun q -> (Catalogue.find q).Catalogue.test262_accepted) quirks)
    )
  in
  let gen, ecma =
    List.partition (fun d -> classify d = `Gen) c.Campaign.cp_discoveries
  in
  [ row "Test program generation" gen; row "ECMA-262 guided mutation" ecma ]

(* Table 5: top buggy object types. *)
let table5 (c : Campaign.result) : (string * int * int * int) list =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun d ->
      let ot = (Catalogue.find d.Campaign.disc_quirk).Catalogue.object_type in
      Hashtbl.replace groups ot
        (d.Campaign.disc_quirk
        :: Option.value (Hashtbl.find_opt groups ot) ~default:[]))
    c.Campaign.cp_discoveries;
  Hashtbl.fold
    (fun ot quirks acc ->
      ( ot,
        List.length quirks,
        List.length (List.filter is_verified quirks),
        List.length (List.filter is_fixed quirks) )
      :: acc)
    groups []
  |> List.sort (fun (_, a, _, _) (_, b, _, _) -> compare b a)

(* Figure 7: bugs per affected compiler component. *)
let fig7 (c : Campaign.result) : (string * int * int) list =
  let components =
    Catalogue.
      [ CodeGen; Implementation; Parser; RegexEngine; Optimizer; StrictModeOnly ]
  in
  List.map
    (fun comp ->
      let mine =
        List.filter
          (fun d ->
            (Catalogue.find d.Campaign.disc_quirk).Catalogue.component = comp)
          c.Campaign.cp_discoveries
      in
      let quirks = List.map (fun d -> d.Campaign.disc_quirk) mine in
      ( Catalogue.component_to_string comp,
        List.length quirks,
        List.length (List.filter is_fixed quirks) ))
    components

(* Supervision summary: what the fault-injection/retry/quarantine layer
   absorbed during the campaign, as (label, count) rows. Quarantined testbeds get one row each so a chaos
   report names the degraded coverage explicitly. *)
let supervision_summary (c : Campaign.result) : (string * int) list =
  let s = c.Campaign.cp_faults in
  ("faulted attempts", s.Supervisor.st_injected)
  :: ("retried ok", s.Supervisor.st_retried)
  :: ("gave up", s.Supervisor.st_faulted)
  :: ("skipped (quarantine)", s.Supervisor.st_skipped)
  :: ("slow starts absorbed", s.Supervisor.st_slow)
  :: ("backoff units", s.Supervisor.st_backoff)
  :: ("cases failed-and-skipped", c.Campaign.cp_skipped_cases)
  :: List.map
       (fun (id, at) -> ("quarantined:" ^ id, at))
       c.Campaign.cp_quarantined

(* Ground-truth totals, for "found X of Y seeded bugs" summaries. *)
let ground_truth_total () = List.length Registry.all_bugs
