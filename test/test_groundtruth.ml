(* Registry/ground-truth consistency: for every (engine, bug) assignment,
   the bug's trigger program (from the quirk trigger table) deviates from
   the conforming reference exactly on the versions that carry the bug —
   present in [since, fixed), absent outside. This is what makes Table 3's
   per-version attribution measured rather than asserted. *)

open Jsinterp
open Helpers

let trigger_of (q : Quirk.t) : (string * bool) option =
  List.find_map
    (fun (q', src, strict) -> if Quirk.equal q q' then Some (src, strict) else None)
    Test_quirks.triggers

let deviates (cfg : Engines.Registry.config) ~strict (src : string) : bool =
  let tb =
    {
      Engines.Engine.tb_config = cfg;
      tb_mode = (if strict then Engines.Engine.Strict else Engines.Engine.Normal);
    }
  in
  let target = Engines.Engine.run ~fuel:2_000_000 tb src in
  let reference = Engines.Engine.run_reference ~fuel:2_000_000 ~strict src in
  Comfort.Difftest.signature_of_result target
  <> Comfort.Difftest.signature_of_result reference

(* Check one engine's full assignment list across its whole version
   history. ES-edition gating can hide a trigger from old front ends: skip
   versions that cannot parse the trigger at all. *)
let check_engine (e : Engines.Registry.engine) () =
  List.iter
    (fun (a : Engines.Registry.assignment) ->
      match trigger_of a.Engines.Registry.aq with
      | None ->
          Alcotest.failf "no trigger for %s" (Quirk.to_string a.Engines.Registry.aq)
      | Some (src, strict) ->
          List.iter
            (fun (cfg : Engines.Registry.config) ->
              if Engines.Engine.supports cfg src then begin
                let carries =
                  Quirk.Set.mem a.Engines.Registry.aq cfg.Engines.Registry.cfg_quirks
                in
                let dev = deviates cfg ~strict src in
                if carries && not dev then
                  Alcotest.failf "%s %s should deviate on %s"
                    (fst cfg.Engines.Registry.cfg_testbed_ids)
                    (Quirk.to_string a.Engines.Registry.aq)
                    src;
                (* a version without this bug may still deviate if it
                   carries another bug the same trigger tickles; only
                   insist on agreement when the version is entirely
                   quirk-free on the APIs involved, which we approximate by
                   checking that no quirk fires at all *)
                if (not carries) && dev then begin
                  let tb =
                    {
                      Engines.Engine.tb_config = cfg;
                      tb_mode =
                        (if strict then Engines.Engine.Strict
                         else Engines.Engine.Normal);
                    }
                  in
                  let r = Engines.Engine.run ~fuel:2_000_000 tb src in
                  if Quirk.Set.is_empty r.Jsinterp.Run.r_fired then
                    Alcotest.failf
                      "%s deviates on %s without any quirk firing"
                      (fst cfg.Engines.Registry.cfg_testbed_ids)
                      (Quirk.to_string a.Engines.Registry.aq)
                end
              end)
            (Engines.Registry.configs_of e))
    (Engines.Registry.assignments e)

let suite =
  List.map
    (fun e ->
      case
        (Engines.Registry.engine_name e ^ " version ranges are observable")
        (check_engine e))
    Engines.Registry.all_engines
