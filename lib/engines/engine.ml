(* Testbed execution: run a test case on one engine-version configuration
   in one mode (normal or strict), per the paper's §4.2 testbed setup. *)

open Jsinterp

type mode = Normal | Strict

let mode_to_string = function Normal -> "normal" | Strict -> "strict"

type testbed = {
  tb_config : Registry.config;
  tb_mode : mode;
}

let testbed_id (tb : testbed) =
  Printf.sprintf "%s[%s]" (Registry.id tb.tb_config) (mode_to_string tb.tb_mode)

(* The paper's 102 testbeds: 51 configurations x 2 modes. *)
let all_testbeds : testbed list =
  List.concat_map
    (fun c -> [ { tb_config = c; tb_mode = Normal }; { tb_config = c; tb_mode = Strict } ])
    Registry.all_configs

(* Testbeds for the newest version of each engine, the default target set
   for a fuzzing campaign. *)
let latest_testbeds ?(mode = Normal) () : testbed list =
  List.map
    (fun e -> { tb_config = Registry.latest e; tb_mode = mode })
    Registry.all_engines

let run ?(fuel = Run.default_fuel) ?(coverage = false) ?strategy ?frontend
    (tb : testbed) (src : string) : Run.result =
  Run.run
    ~quirks:tb.tb_config.Registry.cfg_quirks
    ~parse_opts:(Registry.parse_opts_of_config tb.tb_config)
    ~strict:(tb.tb_mode = Strict)
    ~fuel ~coverage ?strategy ?frontend src

(* A reference run: the standard-conforming engine with no quirks. Used by
   the reducer and by examples as the "expected" behaviour. *)
let run_reference ?(fuel = Run.default_fuel) ?(strict = false) ?strategy
    (src : string) : Run.result =
  Run.run ~strict ~fuel ?strategy src

(* Can this configuration's front end parse the program at all? Used by the
   campaign to honour the paper's rule of only testing engines against
   programs within their supported edition (§2.2). *)
let supports (c : Registry.config) (src : string) : bool =
  match
    Jsparse.Parser.parse_program ~opts:(Registry.parse_opts_of_config c) src
  with
  | _ -> true
  | exception Jsparse.Parser.Syntax_error _ ->
      (* distinguish "ES edition too old" from genuinely bad syntax: if the
         default front end accepts it, the rejection is a feature gap *)
      not (Jsparse.Parser.is_valid src)

(* The per-case front-end cache. Differential testing sweeps one source
   across many testbeds, and most of the 51 configs share the same
   effective front end; without a cache each testbed costs up to three
   parses (edition gating parses once or twice, the run itself once more).
   A [Frontend.cache] is built once per test case and shares:

   - one *permissive base parse* per profile (ES5 / standard): parsed
     sloppy with every parser-level quirk acceptance enabled. The ES5
     profile only rejects constructs, and the standard parse reports
     every construct an ES5 flag gates through [edition_sensitive_sink];
     when it reports none, the ES5 profile takes the standard base front
     end as is, without a parse of its own. Because
     each quirk decision point either sinks its quirk (accept on) or
     raises (accept off), and each strict-divergent construct reports
     through [strict_sensitive_sink], the base parse proves its own
     reuse conditions: any [(parse_key, mode)] group whose quirk set
     covers the sunk quirks — and, for strict groups, whose source
     contains no strict-sensitive construct (or opts into strict
     itself) — parses identically and shares the base front end
     outright, compilations and all. In the common case
     the whole 100-testbed sweep costs one or two parses;
   - the [supports] verdict and the syntactic-validity check backing its
     feature-gap probe, both derived from the base parses for free;
   - a real parse per [(Registry.parse_key, mode)] group whose
     difference from the base is actually observable (rare: the source
     must contain the quirky or strict-sensitive syntax).

   Every distinct front end the cache hands out carries a small integer
   id (its position in creation order); {!Exec} keys its execution
   classes by that id, so parse groups that share one front end also
   share executions.

   A cache is a plain mutable value tied to one source string: the
   campaign builds one cache per case inside the worker call that owns
   that case. *)
module Frontend = struct
  type cache = {
    fc_src : string;
    fc_base : (bool, int * Run.frontend) Hashtbl.t;
        (* permissive sloppy parse with its id, keyed by "is the ES5
           profile?" *)
    fc_supports : (bool, bool) Hashtbl.t;
        (* keyed by "is the ES5 profile?" — all [supports] depends on *)
    fc_groups : (int, int * Run.frontend) Hashtbl.t;
        (* keyed by [Registry.pk_int] of the effective front end, with
           the strict-mode bit folded in at bit 4 — an int key hashes in
           a few ns where the (record, bool) pair paid a polymorphic
           structure walk per lookup, once per testbed per case *)
    mutable fc_ids : int;  (* distinct front ends handed out so far *)
  }

  let cache (src : string) : cache =
    {
      fc_src = src;
      fc_base = Hashtbl.create 2;
      fc_supports = Hashtbl.create 2;
      fc_groups = Hashtbl.create 8;
      fc_ids = 0;
    }

  (* A fresh front end, numbered. At most the two base parses plus one
     per (parse key, mode) group — 34 — are ever numbered per cache. *)
  let numbered (fc : cache) (fe : Run.frontend) : int * Run.frontend =
    let id = fc.fc_ids in
    fc.fc_ids <- id + 1;
    (id, fe)

  (* Every parser-level quirk, enabled at once for the base parse. *)
  let permissive_quirks =
    Quirk.Set.of_list
      [
        Quirk.Q_eval_for_missing_body_accepted;
        Quirk.Q_strict_dup_params_accepted;
        Quirk.Q_strict_delete_unqualified_accepted;
      ]

  let rec base_entry (fc : cache) ~(es5 : bool) : int * Run.frontend =
    match Hashtbl.find_opt fc.fc_base es5 with
    | Some e -> e
    | None ->
        let parse parse_opts =
          numbered fc
            (Run.parse_frontend ~quirks:permissive_quirks ~parse_opts
               ~strict:false fc.fc_src)
        in
        let e =
          if not es5 then parse Jsparse.Parser.default_options
          else
            (* the ES5 options only reject: a standard parse that reached
               no edition-gated construct is the ES5 parse *)
            let std = base_entry fc ~es5:false in
            if (snd std).Run.fe_edition_sensitive then
              parse Jsparse.Parser.es5_options
            else std
        in
        Hashtbl.replace fc.fc_base es5 e;
        e

  let base_frontend (fc : cache) ~(es5 : bool) : Run.frontend =
    snd (base_entry fc ~es5)

  (* Parses under the profile's own options (no quirk acceptances): the
     permissive base succeeded without leaning on any acceptance. *)
  let parses_clean (fe : Run.frontend) : bool =
    (match fe.Run.fe_program with Ok _ -> true | Error _ -> false)
    && Quirk.Set.is_empty fe.Run.fe_fired

  (* Syntactic validity under the standard front end, derived from the
     standard base parse instead of a parse of its own. *)
  let valid (fc : cache) : bool = parses_clean (base_frontend fc ~es5:false)

  let supports (fc : cache) (c : Registry.config) : bool =
    let key = c.Registry.cfg_es = Registry.ES5 in
    match Hashtbl.find_opt fc.fc_supports key with
    | Some b -> b
    | None ->
        let b = parses_clean (base_frontend fc ~es5:key) || not (valid fc) in
        Hashtbl.replace fc.fc_supports key b;
        b

  let source (fc : cache) = fc.fc_src

  (* The packed table key of a parse group: [pk_int] plus the strict bit. *)
  let group_key (pk : Registry.parse_key) ~(strict : bool) : int =
    Registry.pk_int pk lor if strict then 16 else 0

  (* The shared front end of an arbitrary parse group, with its id. Two
     profiles with the same [key] have identical effective options, so
     whichever member arrives first parses on behalf of the whole group —
     and when the base parse's sunk-quirk and strict-sensitivity evidence
     proves the group's options unobservable on this source, the group
     shares the base front end without parsing at all. *)
  let entry_for (fc : cache) ~(key : Registry.parse_key * bool)
      ~(quirks : Quirk.Set.t) ~(parse_opts : Jsparse.Parser.options)
      ~(strict : bool) : int * Run.frontend =
    let ikey = group_key (fst key) ~strict:(snd key) in
    match Hashtbl.find_opt fc.fc_groups ikey with
    | Some e -> e
    | None ->
        let pk, _ = key in
        let ((_, base) as base_e) = base_entry fc ~es5:pk.Registry.pk_es5 in
        let subsumed =
          (* all quirks the base parse leaned on are enabled here, so
             this group's parse accepts at the same points and sinks the
             same (post-filter) set *)
          Quirk.Set.subset base.Run.fe_fired quirks
        in
        let mode_ok =
          (not strict)
          || (not base.Run.fe_strict_sensitive)
          ||
          (* a directive-prologue opt-in makes the sloppy parse strict
             already; forcing the mode changes nothing *)
          match base.Run.fe_program with
          | Ok p -> p.Jsast.Ast.prog_strict
          | Error _ -> false
        in
        let e =
          if subsumed && mode_ok then base_e
          else
            numbered fc
              (Run.parse_frontend ~quirks ~parse_opts ~strict fc.fc_src)
        in
        Hashtbl.replace fc.fc_groups ikey e;
        e

  let frontend_for fc ~key ~quirks ~parse_opts ~strict =
    snd (entry_for fc ~key ~quirks ~parse_opts ~strict)

  let frontend (fc : cache) (tb : testbed) : Run.frontend =
    let cfg = tb.tb_config in
    frontend_for fc
      ~key:(Registry.parse_key cfg, tb.tb_mode = Strict)
      ~quirks:cfg.Registry.cfg_quirks
      ~parse_opts:(Registry.parse_opts_of_config cfg)
      ~strict:(tb.tb_mode = Strict)
end

(* The per-case execution-sharing cache, extending {!Frontend} from shared
   parses to shared *executions*. Differential testing interprets one case
   on up to 102 testbeds, yet a typical case reaches only a handful of the
   72 registered quirk checkpoints, so most testbeds are guaranteed to
   replay the reference behaviour byte for byte. [Exec.run] therefore
   executes once per *behavioural equivalence class* — testbeds keyed by
   (front end, mode, quirk set ∩ touched checkpoints) — and lets every
   other member inherit the representative's [Run.result] (output, status,
   fuel, fired), so majority voting and the 2t rule see exactly the
   results a direct sweep would have produced.

   Classes are discovered by a split-and-rerun fixpoint: each incoming
   testbed is validated against the representatives found so far, in
   creation order, using the representative's *own* touched set
   ([Run.shares_class] — sound because a firing quirk can steer control
   flow into new checkpoints, so only the representative's observed
   touched set, never a prediction, may justify sharing). A testbed that
   matches no representative splits off and is rerun as the
   representative of a fresh class. Each iteration retires one testbed,
   so the loop is bounded by the group size and degenerates to the
   unshared sweep in the worst case. Soundness argument: DESIGN.md §8.

   Classes are keyed by the *front end* ({!Frontend}'s id), not by the
   parse group: testbeds of different parse groups that share one parsed
   program share executions too, since the interpreter only consults the
   parse options again when the program parses source at run time
   ([eval]). Such a run is flagged ([Run.ex_reparsed]) and lent only
   within its own parse group.

   Like [Frontend.cache], a cache is a plain mutable value tied to one
   source string: the campaign builds one per case inside the worker
   call that owns the case. *)
module Exec = struct
  (* A class representative: its execution plus the [Registry.pk_int] of
     the parse group it ran under, which a run-time parse depends on. *)
  type rep = { rp_pk : int; rp_ex : Run.exec }

  (* May an engine of parse group [pk] carrying [quirks] inherit [r]? *)
  let admits ~(pk : int) ~(quirks : Quirk.Set.t) (r : rep) : bool =
    (r.rp_pk = pk || not r.rp_ex.Run.ex_reparsed)
    && Run.shares_class ~quirks r.rp_ex

  type cache = {
    ec_frontend : Frontend.cache;
    ec_classes : (int, rep list ref) Hashtbl.t;
        (* (front-end id, strict, fuel) packed into one int — strict in
           bit 0, the id (< 64, see [Frontend.numbered]) in bits 1–6,
           fuel above — -> the class representatives, oldest first; fuel
           is in the key so a cache survives mixed budgets *)
    mutable ec_executed : int;  (* real interpreter executions *)
    mutable ec_shared : int;    (* runs answered by class inheritance *)
  }

  let cache (src : string) : cache =
    {
      ec_frontend = Frontend.cache src;
      ec_classes = Hashtbl.create 8;
      ec_executed = 0;
      ec_shared = 0;
    }

  let frontend_cache (ec : cache) = ec.ec_frontend
  let supports (ec : cache) (c : Registry.config) =
    Frontend.supports ec.ec_frontend c

  let stats (ec : cache) = (ec.ec_executed, ec.ec_shared)

  let run_keyed ?strategy (ec : cache) ~(pkey : Registry.parse_key)
      ~(quirks : Quirk.Set.t) ~(parse_opts : Jsparse.Parser.options)
      ~(strict : bool) ~(fuel : int) : Run.result =
    let strategy = Strategy.value strategy in
    let fe_id, fe =
      Frontend.entry_for ec.ec_frontend ~key:(pkey, strict) ~quirks
        ~parse_opts ~strict
    in
    let execute () =
      Run.run_exec ~quirks ~parse_opts ~strict ~fuel ~strategy ~frontend:fe
        (Frontend.source ec.ec_frontend)
    in
    match (fe.Run.fe_program, strategy) with
    | Error _, _ ->
        (* nothing executes; [run_exec] only renders the stored syntax
           error and filters the sunk parse quirks *)
        (execute ()).Run.ex_result
    | Ok _, Strategy.Reference ->
        (* the oracle shares nothing: every testbed executes directly *)
        ec.ec_executed <- ec.ec_executed + 1;
        (execute ()).Run.ex_result
    | Ok _, Strategy.Fast -> (
        let ckey =
          (if strict then 1 else 0) lor (fe_id lsl 1) lor (fuel lsl 7)
        in
        let pk = Registry.pk_int pkey in
        let reps =
          match Hashtbl.find_opt ec.ec_classes ckey with
          | Some c -> c
          | None ->
              let c = ref [] in
              Hashtbl.replace ec.ec_classes ckey c;
              c
        in
        match List.find_opt (admits ~pk ~quirks) !reps with
        | Some r ->
            ec.ec_shared <- ec.ec_shared + 1;
            Run.share ~frontend:fe ~quirks r.rp_ex
        | None ->
            (* split: no representative's touched set validates this
               quirk set, so it seeds a new class with a direct
               execution *)
            let ex = execute () in
            ec.ec_executed <- ec.ec_executed + 1;
            reps := !reps @ [ { rp_pk = pk; rp_ex = ex } ];
            ex.Run.ex_result)

  let run ?(fuel = Run.default_fuel) ?strategy (ec : cache) (tb : testbed) :
      Run.result =
    let cfg = tb.tb_config in
    run_keyed ?strategy ec
      ~pkey:(Registry.parse_key cfg)
      ~quirks:cfg.Registry.cfg_quirks
      ~parse_opts:(Registry.parse_opts_of_config cfg)
      ~strict:(tb.tb_mode = Strict) ~fuel

  (* The conforming reference engine through the same cache: joins the
     standard-front-end, quirk-free parse group and (having no quirks at
     all) shares any class whose representative fired nothing it touched. *)
  let run_reference ?(fuel = Run.default_fuel) ?(strict = false) ?strategy
      (ec : cache) : Run.result =
    run_keyed ?strategy ec
      ~pkey:Registry.reference_parse_key
      ~quirks:Quirk.Set.empty
      ~parse_opts:Jsparse.Parser.default_options ~strict ~fuel
end
