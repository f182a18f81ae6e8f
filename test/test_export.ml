(* Test262-style export (§5.4): every authored conformance assertion must
   pass on a conforming engine and fail on an engine carrying the bug. *)

open Helpers
open Jsinterp

let fake_discovery (engine : Engines.Registry.engine) (q : Quirk.t) :
    Comfort.Campaign.discovery =
  {
    Comfort.Campaign.disc_engine = engine;
    disc_quirk = q;
    disc_case = Comfort.Testcase.make "print(1);";
    disc_reduced = None;
    disc_kind = Comfort.Difftest.Dev_output;
    disc_behavior = "WrongOutput";
    disc_at = 1;
    disc_version =
      Option.value (Engines.Registry.earliest_version engine q) ~default:"?";
    disc_mode = Engines.Engine.Normal;
  }

(* find an engine version carrying this quirk *)
let carrier (q : Quirk.t) : Engines.Registry.config option =
  List.find_opt
    (fun (c : Engines.Registry.config) ->
      Quirk.Set.mem q c.Engines.Registry.cfg_quirks)
    Engines.Registry.all_configs

(* every quirk with an authored assertion, its carrier and its file *)
let exported () =
  let any_engine =
    (List.hd Engines.Registry.all_configs).Engines.Registry.cfg_engine
  in
  List.filter_map
    (fun q ->
      let cfg = carrier q in
      let engine =
        match cfg with
        | Some cfg -> cfg.Engines.Registry.cfg_engine
        | None -> any_engine
      in
      Option.map
        (fun file -> (q, cfg, file))
        (Comfort.Test262_export.render (fake_discovery engine q)))
    Quirk.all

let export_round_trip () =
  let exported = exported () in
  Alcotest.(check bool) "at least 15 exportable assertions" true
    (List.length exported >= 15);
  List.iter
    (fun (q, cfg, (name, source)) ->
      match cfg with
      | None -> () (* quirk not assigned to any engine *)
      | Some cfg ->
          Alcotest.(check bool) "filename is a .js file" true
            (Filename.check_suffix name ".js");
          Alcotest.(check bool) "has front matter" true
            (Str_contains.contains source "/*---");
          (* a conforming engine passes *)
          let clean =
            { cfg with Engines.Registry.cfg_quirks = Quirk.Set.empty }
          in
          if not (Comfort.Test262_export.passes clean source) then
            Alcotest.failf "conforming engine fails export for %s:\n%s"
              (Quirk.to_string q) source;
          (* the buggy engine version fails *)
          if Comfort.Test262_export.passes cfg source then
            Alcotest.failf "buggy engine passes export for %s"
              (Quirk.to_string q))
    exported

let export_from_campaign () =
  let fz = Comfort.Campaign.comfort_fuzzer ~seed:77 () in
  let res = Comfort.Campaign.run ~budget:400 fz in
  let files = Comfort.Test262_export.export res in
  (* exports are consistent with the discovery list *)
  Alcotest.(check bool) "export count bounded by discoveries" true
    (List.length files <= List.length res.Comfort.Campaign.cp_discoveries);
  List.iter
    (fun (name, source) ->
      Alcotest.(check bool) (name ^ " parses") true (Jsparse.Parser.is_valid source))
    files

let suite =
  [
    case "assertions pass/fail on the right engines" export_round_trip;
    case "campaign export" export_from_campaign;
  ]
