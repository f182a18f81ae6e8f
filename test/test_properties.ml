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
    ]
