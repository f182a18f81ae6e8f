(* Cross-cutting QCheck properties over the whole pipeline. *)


(* deterministic program source generator: LM samples keyed by seed *)
let gen_source =
  QCheck2.Gen.(
    map
      (fun seed ->
        let g = Comfort.Generator.create ~seed:(abs seed + 1) () in
        Comfort.Generator.sample_program g)
      int)

let interpreter_deterministic =
  QCheck2.Test.make ~count:60 ~name:"interpreter is deterministic" gen_source
    (fun src ->
      let r1 = Jsinterp.Run.run ~fuel:200_000 src in
      let r2 = Jsinterp.Run.run ~fuel:200_000 src in
      Comfort.Difftest.signature_of_result r1
      = Comfort.Difftest.signature_of_result r2
      && r1.Jsinterp.Run.r_fuel_used = r2.Jsinterp.Run.r_fuel_used)

let reference_never_fires =
  QCheck2.Test.make ~count:60 ~name:"reference engine fires no quirks"
    gen_source (fun src ->
      let r = Jsinterp.Run.run ~fuel:200_000 src in
      Jsinterp.Quirk.Set.is_empty r.Jsinterp.Run.r_fired)

let quirkless_testbeds_agree =
  (* ten engines that all carry zero bugs can never deviate from each other *)
  let clean_testbeds =
    List.map
      (fun e ->
        let cfg = Engines.Registry.latest e in
        {
          Engines.Engine.tb_config =
            { cfg with Engines.Registry.cfg_quirks = Jsinterp.Quirk.Set.empty };
          tb_mode = Engines.Engine.Normal;
        })
      Engines.Registry.all_engines
  in
  QCheck2.Test.make ~count:40 ~name:"quirk-free engines never deviate"
    gen_source (fun src ->
      let tc = Comfort.Testcase.make src in
      let report = Comfort.Difftest.run_case clean_testbeds tc in
      report.Comfort.Difftest.cr_deviations = [])

let datagen_mutants_parse =
  QCheck2.Test.make ~count:40 ~name:"datagen mutants always parse" gen_source
    (fun src ->
      let dg = Comfort.Datagen.create ~seed:5 () in
      List.for_all
        (fun (m : Comfort.Datagen.mutant) ->
          Jsparse.Parser.is_valid m.Comfort.Datagen.m_source)
        (Comfort.Datagen.mutants_of_program dg src))

let fuel_monotone =
  (* more fuel can only move a timeout towards completion, never the
     reverse; the final non-timeout signature is stable *)
  QCheck2.Test.make ~count:40 ~name:"fuel is monotone" gen_source (fun src ->
      let r_small = Jsinterp.Run.run ~fuel:20_000 src in
      let r_big = Jsinterp.Run.run ~fuel:2_000_000 src in
      match (r_small.Jsinterp.Run.r_status, r_big.Jsinterp.Run.r_status) with
      | Jsinterp.Run.Sts_timeout, _ -> true
      | s1, s2 -> s1 = s2)

let reducer_output_still_valid =
  QCheck2.Test.make ~count:25 ~name:"reducer preserves syntactic validity"
    gen_source (fun src ->
      if not (Jsparse.Parser.is_valid src) then true
      else
        (* reduce under a trivial predicate that accepts smaller parseable
           programs printing anything *)
        let reduced =
          Comfort.Reducer.reduce
            ~still_triggers:(fun s -> Jsparse.Parser.is_valid s)
            src
        in
        Jsparse.Parser.is_valid reduced
        && String.length reduced <= String.length src)

let printer_preserves_behavior =
  (* parse -> print -> parse -> run gives the same observable result *)
  QCheck2.Test.make ~count:60 ~name:"pretty-printing preserves behaviour"
    gen_source (fun src ->
      match Jsparse.Parser.parse_program src with
      | exception Jsparse.Parser.Syntax_error _ -> true
      | p ->
          let src2 = Jsast.Printer.program_to_string p in
          let r1 = Jsinterp.Run.run ~fuel:200_000 src in
          let r2 = Jsinterp.Run.run ~fuel:200_000 src2 in
          Comfort.Difftest.signature_of_result r1
          = Comfort.Difftest.signature_of_result r2)

(* --- Quirk.Bits ↔ Quirk.Set equivalence ---
   The execution-sharing layer does its per-testbed set algebra on the
   packed Bits form; these properties pin it to the balanced-tree Set
   semantics over the whole catalogue. *)

let gen_quirks =
  QCheck2.Gen.(
    map Jsinterp.Quirk.Set.of_list
      (list_size (0 -- 72) (oneofl Jsinterp.Quirk.all)))

let bits_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"Bits.of_set/to_set roundtrip" gen_quirks
    (fun s ->
      Jsinterp.Quirk.Set.equal
        (Jsinterp.Quirk.Bits.to_set (Jsinterp.Quirk.Bits.of_set s))
        s)

let bits_mem_agrees =
  QCheck2.Test.make ~count:200 ~name:"Bits.mem agrees with Set.mem" gen_quirks
    (fun s ->
      let b = Jsinterp.Quirk.Bits.of_set s in
      List.for_all
        (fun q -> Jsinterp.Quirk.Bits.mem q b = Jsinterp.Quirk.Set.mem q s)
        Jsinterp.Quirk.all)

let bits_algebra_agrees =
  QCheck2.Test.make ~count:200 ~name:"Bits algebra commutes with Set algebra"
    QCheck2.Gen.(pair gen_quirks gen_quirks)
    (fun (s1, s2) ->
      let module Q = Jsinterp.Quirk in
      let b1 = Q.Bits.of_set s1 and b2 = Q.Bits.of_set s2 in
      Q.Set.equal (Q.Bits.to_set (Q.Bits.union b1 b2)) (Q.Set.union s1 s2)
      && Q.Set.equal (Q.Bits.to_set (Q.Bits.inter b1 b2)) (Q.Set.inter s1 s2)
      && Q.Set.equal (Q.Bits.to_set (Q.Bits.diff b1 b2)) (Q.Set.diff s1 s2)
      && Q.Bits.subset b1 b2 = Q.Set.subset s1 s2
      && Q.Bits.equal b1 b2 = Q.Set.equal s1 s2
      && Q.Bits.is_empty b1 = Q.Set.is_empty s1
      && Q.Bits.cardinal b1 = Q.Set.cardinal s1)

let bits_point_ops_agree =
  QCheck2.Test.make ~count:200 ~name:"Bits.add/remove/singleton agree with Set"
    QCheck2.Gen.(pair gen_quirks (oneofl Jsinterp.Quirk.all))
    (fun (s, q) ->
      let module Q = Jsinterp.Quirk in
      let b = Q.Bits.of_set s in
      Q.Set.equal (Q.Bits.to_set (Q.Bits.add q b)) (Q.Set.add q s)
      && Q.Set.equal (Q.Bits.to_set (Q.Bits.remove q b)) (Q.Set.remove q s)
      && Q.Set.equal (Q.Bits.to_set (Q.Bits.singleton q)) (Q.Set.singleton q))

(* --- integer element keys ---
   The interpreter's integer element path ([Ops.index_of_num]) must agree
   with the string path it bypasses: ToString of the key, then
   [Value.array_index_of_key]. These pin the integer domain inside the
   canonical-index domain, the [string_of_int] arm of [number_to_string]
   to the "%.0f" text it replaced, and the digit-first short cut of
   [array_index_of_key] to its previous definition. *)

let key_edges =
  [
    0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 0.5; 1.5;
    -1.0; -1.5; 1e-7; 2147483647.0; 2147483648.0; 2147483649.0;
    4294967295.0; 4294967296.0; 9007199254740991.0; 9007199254740992.0;
    9007199254740993.0; 4611686018427387904.0; 1e21; -1e21; 1e7 +. 1.0;
    10000000.0; 123456789012.0; -9007199254740991.0;
  ]

let gen_key_float =
  QCheck2.Gen.(
    frequency
      [
        (3, oneofl key_edges);
        (3, map Float.of_int (int_range (-1000) 100_000));
        (2, map (fun f -> Float.round (f *. 1e16)) (float_range (-1.0) 1.0));
        (2, float);
      ])

let index_of_num_within_string_path =
  QCheck2.Test.make ~count:2000 ~name:"integer element keys name the same index"
    ~print:(Printf.sprintf "%h") gen_key_float (fun f ->
      match Jsinterp.Ops.index_of_num f with
      | None -> true
      | Some i ->
          Jsinterp.Value.array_index_of_key (Jsinterp.Ops.number_to_string f)
          = Some i)

let gen_integral =
  QCheck2.Gen.(
    map
      (fun f -> if Float.is_integer f && Float.abs f < 1e21 then f else 7.0)
      (frequency
         [
           (2, oneofl key_edges);
           (3, map (fun f -> Float.round (f *. 1e20)) (float_range (-1.0) 1.0));
           (3, map (fun f -> Float.round (f *. 1e16)) (float_range (-1.0) 1.0));
           (2, map Float.of_int (int_range (-100_000) 100_000));
         ]))

let integral_number_to_string =
  QCheck2.Test.make ~count:2000 ~name:"integral number_to_string is %.0f"
    ~print:(Printf.sprintf "%h") gen_integral (fun f ->
      (* both zeros print "0"; "%.0f" would print "-0" *)
      f = 0.0 || Jsinterp.Ops.number_to_string f = Printf.sprintf "%.0f" f)

(* [Value.array_index_of_key] before the digit-first check *)
let old_array_index_of_key (k : string) : int option =
  match int_of_string_opt k with
  | Some i when i >= 0 && string_of_int i = k -> Some i
  | _ -> None

let gen_key_string =
  QCheck2.Gen.(
    frequency
      [
        ( 3,
          oneofl
            [
              "+5"; "-0"; "0x10"; "0X1f"; "0b1"; "0o7"; "1_000"; ""; "0"; "00";
              "01"; "-5"; " 5"; "5 "; "length"; "push"; "4294967295";
              "9007199254740993"; "4611686018427387903"; "4611686018427387904";
              "99999999999999999999"; "1e3"; "1.0"; "NaN"; "Infinity";
            ] );
        (3, map string_of_int (int_range (-1000) 1_000_000));
        (2, string_size ~gen:(oneofl [ '0'; '1'; '9'; '_'; 'x'; '-'; '+'; 'e'; '.'; ' ' ]) (0 -- 8));
        (2, string_printable);
      ])

let array_index_of_key_unchanged =
  QCheck2.Test.make ~count:2000 ~name:"array_index_of_key keeps its definition"
    ~print:(Printf.sprintf "%S") gen_key_string (fun k ->
      Jsinterp.Value.array_index_of_key k = old_array_index_of_key k)

(* --- the derived property index ---

   Random [set_own], [remove_own], [Object.defineProperty] and
   [Object.freeze] calls on an object, with [find_own] and [own_keys]
   checked after every step against an association-list model. The
   object is either fresh (0-40 properties, so the index is built, kept
   and dropped at every size) or one of the realm template's large
   objects, whose writes are journaled; a [Realm.release] step rolls them
   back, and the lookups that follow are the next execution's. *)

module V = Jsinterp.Value

type index_op =
  | Ix_set of int
  | Ix_remove of int
  | Ix_define of int * bool * bool * bool  (** key, writable, enumerable, configurable *)
  | Ix_freeze
  | Ix_release

let index_key_pool = Array.init 45 (Printf.sprintf "k%d")

(* A context over the template realm, enough to call the builtins. *)
let template_ctx () : V.ctx =
  let global, protos = Jsinterp.Realm.acquire () in
  {
    V.global;
    global_scope = { V.bindings = Hashtbl.create 1; parent = None; frozen_names = [] };
    quirks = Jsinterp.Quirk.Set.empty;
    parse_opts = Jsparse.Parser.default_options;
    fuel = max_int;
    fuel_cap = max_int;
    out = Buffer.create 16;
    q_lo = 0;
    q_hi = 0;
    f_lo = 0;
    f_hi = 0;
    t_lo = 0;
    t_hi = 0;
    call_hook = (fun _ _ _ _ -> V.Undefined);
    eval_hook = (fun _ _ _ _ -> V.Undefined);
    coverage = None;
    loop_trip = 0;
    strconcat_drop_armed = true;
    protos;
    depth = 0;
    cur_this = V.Obj global;
    slotted = false;
    specials_shadowed = false;
    reparsed = false;
  }

let gen_index_case =
  QCheck2.Gen.(
    let key = int_bound (Array.length index_key_pool + 39) in
    let op =
      frequency
        [
          (6, map (fun k -> Ix_set k) key);
          (3, map (fun k -> Ix_remove k) key);
          (3, map4 (fun k w e c -> Ix_define (k, w, e, c)) key bool bool bool);
          (1, pure Ix_freeze);
          (1, pure Ix_release);
        ]
    in
    triple (int_bound 4) (int_bound 40) (list_size (0 -- 60) op))

let print_index_case (target, n, ops) =
  Printf.sprintf "target %d, %d initial props, ops [%s]" target n
    (String.concat "; "
       (List.map
          (function
            | Ix_set k -> Printf.sprintf "set %d" k
            | Ix_remove k -> Printf.sprintf "remove %d" k
            | Ix_define (k, w, e, c) -> Printf.sprintf "define %d %b %b %b" k w e c
            | Ix_freeze -> "freeze"
            | Ix_release -> "release")
          ops))

let index_agrees_with_model =
  QCheck2.Test.make ~count:300 ~name:"property index agrees with an assoc-list model"
    ~print:print_index_case gen_index_case (fun (target, n, ops) ->
      let ctx = template_ctx () in
      let obj_of = function V.Obj o -> o | _ -> assert false in
      let prop_of o k = (Option.get (V.find_own o k)).V.v in
      let object_ctor = obj_of (prop_of ctx.V.global "Object") in
      let native name =
        match (obj_of (prop_of object_ctor name)).V.call with
        | Some (V.Native (_, _, f)) -> f
        | _ -> assert false
      in
      let define = native "defineProperty" and freeze = native "freeze" in
      (* target 0 is a fresh object; 1-4 are template objects *)
      let o =
        match target with
        | 0 ->
            let o = V.make_obj () in
            let order =
              List.sort compare (List.init n (fun i -> ((i * 7919) mod 41, i)))
            in
            List.iter
              (fun (_, i) -> V.set_own o index_key_pool.(i) (V.mkprop (V.Num 0.)))
              order;
            o
        | 1 -> ctx.V.global
        | 2 -> obj_of (prop_of ctx.V.global "Math")
        | 3 -> obj_of (V.proto_of ctx "Array")
        | _ -> obj_of (V.proto_of ctx "String")
      in
      (* the pool: the generated keys, then the object's own builtin keys *)
      let pristine = o.V.props in
      let pool =
        Array.append index_key_pool (Array.of_list (List.map fst pristine))
      in
      let key k = pool.(k mod Array.length pool) in
      let model = ref pristine in
      let check step =
        let keys = List.map fst !model in
        if V.own_keys o <> keys then
          QCheck2.Test.fail_reportf "step %d: own_keys [%s], model [%s]" step
            (String.concat "," (V.own_keys o)) (String.concat "," keys);
        Array.iter
          (fun k ->
            match (V.find_own o k, List.assoc_opt k !model) with
            | None, None -> ()
            | Some p, Some q when p == q -> ()
            | _ -> QCheck2.Test.fail_reportf "step %d: find_own %S disagrees" step k)
          pool
      in
      Fun.protect ~finally:Jsinterp.Realm.release (fun () ->
          check 0;
          List.iteri
            (fun i op ->
              (match op with
              | Ix_set k ->
                  let k = key k and p = V.mkprop (V.Num (Float.of_int i)) in
                  V.set_own o k p;
                  model :=
                    if List.mem_assoc k !model then
                      List.map (fun (k', q) -> if k' = k then (k, p) else (k', q)) !model
                    else !model @ [ (k, p) ]
              | Ix_remove k ->
                  let k = key k in
                  V.remove_own o k;
                  model := List.filter (fun (k', _) -> k' <> k) !model
              | Ix_define (k, w, e, c) ->
                  let k = key k in
                  let desc = V.make_obj () in
                  V.set_own desc "value" (V.mkprop (V.Num (Float.of_int i)));
                  V.set_own desc "writable" (V.mkprop (V.Bool w));
                  V.set_own desc "enumerable" (V.mkprop (V.Bool e));
                  V.set_own desc "configurable" (V.mkprop (V.Bool c));
                  (try ignore (define ctx V.Undefined [ V.Obj o; V.Str k; V.Obj desc ])
                   with V.Js_throw _ -> ());
                  (* a new key is appended; an existing one is updated in
                     place *)
                  if not (List.mem_assoc k !model) then
                    Option.iter
                      (fun p -> model := !model @ [ (k, p) ])
                      (List.assoc_opt k o.V.props)
              | Ix_freeze -> ignore (freeze ctx V.Undefined [ V.Obj o ])
              | Ix_release ->
                  Jsinterp.Realm.release ();
                  if target <> 0 then model := pristine);
              check (i + 1))
            ops;
          Jsinterp.Realm.release ();
          if target <> 0 then model := pristine;
          check (List.length ops + 1);
          match Jsinterp.Realm.check_pristine () with
          | Ok () -> true
          | Error what -> QCheck2.Test.fail_reportf "template not pristine: %s" what))

(* --- the vote ---

   [Difftest.judge] against the vote it replaced — a [Hashtbl] from
   signature to count, then a testbed-order scan for the first signature
   with the highest count — kept here as the model. Outputs come from a
   small palette, each drawn either as the palette's own string or as a
   fresh copy, so equal outputs are not always physically shared; the
   palette includes a 64 kB output, and runs crash, time out (by fuel or
   by the 2t rule) and fail to parse. *)

module D = Comfort.Difftest

let old_vote (runs : (Engines.Engine.testbed * Jsinterp.Run.result * D.signature) list) =
  let counts : (D.signature, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (_, _, s) ->
      Hashtbl.replace counts s (1 + Option.value (Hashtbl.find_opt counts s) ~default:0))
    runs;
  let majority_sig, majority_n =
    List.fold_left
      (fun (bs, bn) (_, _, s) ->
        let n = Hashtbl.find counts s in
        if n > bn then (s, n) else (bs, bn))
      (D.Sig_parse_fail, 0) runs
  in
  let have_majority = 2 * majority_n > List.length runs in
  List.filter_map
    (fun ((tb : Engines.Engine.testbed), _, s) ->
      let is_anomaly =
        match s with
        | D.Sig_crash | D.Sig_timeout -> true
        | _ -> have_majority && s <> majority_sig
      in
      if not is_anomaly then None
      else
        Some
          ( Engines.Engine.testbed_id tb,
            D.kind_of s majority_sig,
            D.signature_to_string majority_sig,
            D.signature_to_string s,
            D.behavior_label s majority_sig ))
    runs

let vote_palette =
  [| "1\n"; "2\n"; String.make 65536 'x' ^ "\n\"q\"\t"; ""; "undefined\n" |]

let gen_vote_run =
  QCheck2.Gen.(
    let out = map2 (fun i copy -> (i, copy)) (int_bound (Array.length vote_palette - 1)) bool in
    let fuel = frequency [ (8, int_bound 15_000); (1, int_range 20_000 80_000) ] in
    pair
      (frequency
         [
           (10, map (fun o -> `Normal o) out);
           (3, map2 (fun n o -> `Throw (n, o)) (oneofl [ "TypeError"; "RangeError" ]) out);
           (1, pure `Crash);
           (1, pure `Timeout);
           (1, pure `Parse);
         ])
      fuel)

let vote_result (outcome, fuel) : Jsinterp.Run.result =
  let output (i, copy) =
    let s = vote_palette.(i) in
    if copy then Bytes.to_string (Bytes.of_string s) else s
  in
  let parsed = outcome <> `Parse in
  let status, out =
    match outcome with
    | `Normal o -> (Jsinterp.Run.Sts_normal, output o)
    | `Throw (n, o) -> (Jsinterp.Run.Sts_uncaught (n, "msg"), output o)
    | `Crash -> (Jsinterp.Run.Sts_crash "boom", "")
    | `Timeout -> (Jsinterp.Run.Sts_timeout, "")
    | `Parse -> (Jsinterp.Run.Sts_normal, "")
  in
  {
    Jsinterp.Run.r_parsed = parsed;
    r_parse_error = (if parsed then None else Some "syntax");
    r_status = status;
    r_output = out;
    r_fuel_used = fuel;
    r_fired = Jsinterp.Quirk.Set.empty;
    r_touched = Jsinterp.Quirk.Set.empty;
    r_coverage = None;
  }

let gen_vote_sweep =
  QCheck2.Gen.(
    oneof
      [
        list_size (0 -- 102) gen_vote_run;
        (* a majority output, and minorities that share signatures *)
        list_size (3 -- 102)
          (frequency
             [ (6, map (fun c -> (`Normal (2, c), 100)) bool); (4, gen_vote_run) ]);
        (* an exact tie between two outputs, in either order *)
        map2
          (fun n first ->
            List.init (2 * n) (fun i ->
                (`Normal ((if i mod 2 = 0 then first else 1 - first), i mod 3 = 0), 100)))
          (1 -- 51) (int_bound 1);
      ])

let judge_matches_old_vote =
  let tc = Comfort.Testcase.make "print(1);" in
  QCheck2.Test.make ~count:300 ~name:"judge agrees with the Hashtbl vote"
    ~print:(fun runs -> Printf.sprintf "%d runs" (List.length runs))
    gen_vote_sweep (fun runs ->
      let execs =
        List.mapi
          (fun i r ->
            ( List.nth Engines.Engine.all_testbeds i,
              Comfort.Supervisor.Done (vote_result r, Comfort.Supervisor.ok_meta) ))
          runs
      in
      let report = D.judge { D.sw_case = tc; sw_key = 0; sw_execs = execs } in
      let results =
        List.map
          (fun (tb, o) ->
            match o with Comfort.Supervisor.Done (r, _) -> (tb, r) | _ -> assert false)
          execs
      in
      let scored = D.apply_2t_rule results in
      let expected =
        if
          List.length scored < 3
          || List.for_all (fun (_, _, s) -> s = D.Sig_parse_fail) scored
          || List.for_all (fun (_, _, s) -> s = D.Sig_timeout) scored
        then []
        else old_vote scored
      in
      let got =
        List.map
          (fun (d : D.deviation) ->
            ( Engines.Engine.testbed_id d.D.d_testbed,
              d.D.d_kind,
              d.D.d_expected,
              d.D.d_actual,
              d.D.d_behavior ))
          report.D.cr_deviations
      in
      (* one rendering per distinct signature (two signatures may render
         alike: an exception's rendering omits its output) *)
      let sig_of (d : D.deviation) =
        let id = Engines.Engine.testbed_id d.D.d_testbed in
        let _, _, s =
          List.find (fun (tb, _, _) -> Engines.Engine.testbed_id tb = id) scored
        in
        s
      in
      let shared =
        List.for_all
          (fun (a : D.deviation) ->
            List.for_all
              (fun (b : D.deviation) ->
                a.D.d_expected == b.D.d_expected
                && (sig_of a <> sig_of b || a.D.d_actual == b.D.d_actual))
              report.D.cr_deviations)
          report.D.cr_deviations
      in
      if got <> expected then QCheck2.Test.fail_report "deviations differ from the model";
      if not shared then QCheck2.Test.fail_report "equal signatures rendered twice";
      true)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      interpreter_deterministic;
      reference_never_fires;
      quirkless_testbeds_agree;
      datagen_mutants_parse;
      fuel_monotone;
      reducer_output_still_valid;
      printer_preserves_behavior;
      bits_roundtrip;
      bits_mem_agrees;
      bits_algebra_agrees;
      bits_point_ops_agree;
      index_of_num_within_string_path;
      integral_number_to_string;
      array_index_of_key_unchanged;
      index_agrees_with_model;
      judge_matches_old_vote;
    ]
