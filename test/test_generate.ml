(* The generate stage against its models: the n-gram sampler against a
   list-based back-off model, Datagen's one-print finalize against the
   print-parse-print path it replaced, and a golden digest of the
   generators' case streams. *)

open Helpers

module Rng = struct
  include Cutil.Rng

  (* Weighted choice over [(weight, value)] pairs with positive weights:
     the draw the sampler made over its top-k list. *)
  let weighted t choices =
    let total = List.fold_left (fun acc (w, _) -> acc + w) 0 choices in
    let rec go k = function
      | [] -> assert false
      | (w, v) :: tl -> if k < w then v else go (k - w) tl
    in
    go (int t total) choices
end

(* --- n-gram sampling ---

   The model keys every training context by its int list and keeps an
   association list of continuation counts, backs off from the longest
   context, sorts by count descending then token id, and draws with
   [Rng.weighted] over the top-k list: the sampler before its keys became
   bytes and its sorted views arrays. *)

let order = 4
let bos = -1

let model_of (seqs : int list list) : (int list, (int * int) list) Hashtbl.t =
  let table = Hashtbl.create 256 in
  let bump ctx next =
    let counts = Option.value (Hashtbl.find_opt table ctx) ~default:[] in
    Hashtbl.replace table ctx
      ((next, 1 + Option.value (List.assoc_opt next counts) ~default:0)
      :: List.remove_assoc next counts)
  in
  List.iter
    (fun seq ->
      let padded = List.init (order - 1) (fun _ -> bos) @ seq in
      let arr = Array.of_list padded in
      for i = order - 1 to Array.length arr - 1 do
        for k = 0 to order - 1 do
          bump (Array.to_list (Array.sub arr (i - k) k)) arr.(i)
        done
      done)
    seqs;
  table

let model_candidates table (history : int list) ~k =
  let hist = Array.of_list history in
  let n = Array.length hist in
  let rec back_off len =
    if len < 0 then []
    else
      match Hashtbl.find_opt table (Array.to_list (Array.sub hist (n - len) len)) with
      | Some (_ :: _ as counts) ->
          List.sort
            (fun (t1, c1) (t2, c2) ->
              match compare c2 c1 with 0 -> compare t1 t2 | c -> c)
            counts
          |> List.filteri (fun i _ -> i < k)
      | _ -> back_off (len - 1)
  in
  back_off (min (order - 1) n)

let model_sample table rng history ~k =
  match model_candidates table history ~k with
  | [] -> None
  | cands -> Some (Rng.weighted rng (List.map (fun (tok, c) -> (c, tok)) cands))

let rng_weighted () =
  let r = Rng.create 5 in
  let a = ref 0 and b = ref 0 in
  for _ = 1 to 3000 do
    match Rng.weighted r [ (9, `A); (1, `B) ] with
    | `A -> incr a
    | `B -> incr b
  done;
  Alcotest.(check bool) "9:1 weighting" true (!a > !b * 4)

let ngram_matches_model () =
  let rng = Rng.create 11 in
  (* a small alphabet makes contexts repeat; the largest admissible id
     checks the two-byte keys at their edge *)
  let alphabet = [| 0; 1; 2; 3; 4; 5; 300; 65534 |] in
  let seqs =
    List.init 60 (fun _ ->
        List.init (1 + Rng.int rng 30) (fun _ ->
            alphabet.(Rng.int rng (Array.length alphabet))))
  in
  let ngram = Lm.Ngram.create ~order ~bos in
  List.iter (Lm.Ngram.add_sequence ngram) seqs;
  let table = model_of seqs in
  for trial = 1 to 2000 do
    let history =
      List.init (Rng.int rng (order + 3)) (fun _ ->
          match Rng.int rng 10 with
          | 0 -> bos
          | 1 -> 7 (* never trained: forces a back-off *)
          | _ -> alphabet.(Rng.int rng (Array.length alphabet)))
    in
    let k = 1 + Rng.int rng 6 in
    let name = Printf.sprintf "trial %d" trial in
    Alcotest.(check (list (pair int int))) (name ^ " candidates")
      (model_candidates table history ~k)
      (Lm.Ngram.candidates ngram history ~k);
    let seed = Rng.int rng 1_000_000 in
    let r1 = Rng.create seed and r2 = Rng.create seed in
    Alcotest.(check (option int)) (name ^ " sample")
      (model_sample table r1 history ~k)
      (Lm.Ngram.sample ngram r2 (Array.of_list history) ~k);
    Alcotest.(check int) (name ^ " draws as many") (Rng.bits r1) (Rng.bits r2)
  done

(* On the trained Comfort model: the in-place draw equals [Rng.weighted]
   over [candidates], from the same generator state, on histories taken
   from the encoded corpus. *)
let ngram_sample_is_weighted_candidates () =
  let m = Lazy.force Lm.Model.comfort in
  let model = m.Lm.Model.model in
  let ctx = Lm.Ngram.order model - 1 in
  let rng = Rng.create 12 in
  List.iteri
    (fun i src ->
      if i < 40 then begin
        let ids = Array.of_list (Lm.Ngram.initial_history model (Lm.Model.encode m src)) in
        for at = ctx to Array.length ids do
          let history = Array.to_list (Array.sub ids (at - ctx) ctx) in
          let seed = Rng.int rng 1_000_000 in
          let r1 = Rng.create seed and r2 = Rng.create seed in
          let expected =
            match Lm.Ngram.candidates model history ~k:10 with
            | [] -> None
            | cands ->
                Some (Rng.weighted r1 (List.map (fun (tok, c) -> (c, tok)) cands))
          in
          Alcotest.(check (option int)) "draw"
            expected
            (Lm.Ngram.sample model r2 (Array.of_list history) ~k:10)
        done
      end)
    Lm.Js_corpus.programs

(* --- Datagen's finalize ---

   [mutants_of_program] puts the observation harness on each mutant's own
   AST and prints it once. The model is the path it replaced: print,
   parse the print back, add the harness, print again. *)

let reparse_finalize db (m : Comfort.Datagen.mutant) : Comfort.Datagen.mutant =
  match Jsparse.Parser.parse_program m.Comfort.Datagen.m_source with
  | p ->
      {
        m with
        Comfort.Datagen.m_source =
          Jsast.Printer.program_to_string (Comfort.Datagen.observe_calls db p);
      }
  | exception Jsparse.Parser.Syntax_error _ -> m

let datagen_finalize_matches_reparse () =
  let db = Lazy.force Specdb.Db.standard in
  let dg = Comfort.Datagen.create ~seed:3 () in
  let dg_model = Comfort.Datagen.create ~seed:3 () in
  let gen = Comfort.Generator.create ~seed:31 () in
  let programs = ref 0 and mutants = ref 0 in
  while !programs < 500 do
    let src = Comfort.Generator.sample_program gen in
    if Jsparse.Parser.is_valid src then begin
      incr programs;
      let got = Comfort.Datagen.mutants_of_program dg src in
      let expected =
        List.map (fun (m, _) -> reparse_finalize db m) (Comfort.Datagen.drafts dg_model (Jsparse.Parser.parse_program src))
      in
      mutants := !mutants + List.length got;
      List.iter2
        (fun (e : Comfort.Datagen.mutant) (g : Comfort.Datagen.mutant) ->
          Alcotest.(check string) "mutant source" e.Comfort.Datagen.m_source
            g.Comfort.Datagen.m_source;
          Alcotest.(check string) "mutant api" e.Comfort.Datagen.m_api
            g.Comfort.Datagen.m_api;
          Alcotest.(check bool) "mutant guided" e.Comfort.Datagen.m_guided
            g.Comfort.Datagen.m_guided)
        expected got
    end
  done;
  Alcotest.(check bool) "mutants were compared" true (!mutants > 1000)

(* --- Golden generator streams ---

   The first 300 cases of the Comfort fuzzer at seeds 1-4 and of the
   DeepSmith and Montage baselines (their LM streams at their default
   seeds): each case's provenance, syntax verdict and source, digested
   per stream. Recorded before the sampler, the BPE memo, Datagen's
   one-print finalize and the shortest-digits formatter were rewritten;
   any change to a generated byte fails here and names the stream. *)

let stream_digest (fz : Comfort.Campaign.fuzzer) =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun (tc : Comfort.Testcase.t) ->
      Printf.bprintf b "%s|%b|%d:%s\n"
        (Comfort.Testcase.provenance_to_string tc.Comfort.Testcase.tc_provenance)
        tc.Comfort.Testcase.tc_syntax_valid
        (String.length tc.Comfort.Testcase.tc_source)
        tc.Comfort.Testcase.tc_source)
    (fz.Comfort.Campaign.fz_batch 300);
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_streams =
  [
    ("comfort seed 1", "690743c3ad270f66c49259e77cb584ba");
    ("comfort seed 2", "e2dfab374963ccf1c2ce653a0648fce5");
    ("comfort seed 3", "3a5c2a4a2435ee2ee466a0d4b6720a0b");
    ("comfort seed 4", "5c2653ccb2bf05d32d501f2ca0d11170");
    ("deepsmith", "2e268a332412de1b7cec09ff20123c33");
    ("montage", "9950ea60406f141c831aa59bd3a2d206");
  ]

let golden_generator_streams () =
  let fuzzers =
    List.map
      (fun s -> (Printf.sprintf "comfort seed %d" s, fun () -> Comfort.Campaign.comfort_fuzzer ~seed:s ()))
      [ 1; 2; 3; 4 ]
    @ [
        ("deepsmith", fun () -> Baselines.Fuzzers.deepsmith ());
        ("montage", fun () -> Baselines.Fuzzers.montage ());
      ]
  in
  Alcotest.(check (list string)) "stream names" (List.map fst golden_streams)
    (List.map fst fuzzers);
  let changed =
    List.concat
      (List.map2
         (fun (name, make) (_, recorded) ->
           if stream_digest (make ()) = recorded then [] else [ name ])
         fuzzers golden_streams)
  in
  Alcotest.(check (list string)) "streams whose cases changed" [] changed

let suite =
  [
    case "rng weighted" rng_weighted;
    case "n-gram sampler matches the list model" ngram_matches_model;
    case "n-gram draw is Rng.weighted over candidates" ngram_sample_is_weighted_candidates;
    case "datagen finalize matches print-parse-print" datagen_finalize_matches_reparse;
    case "golden generator streams" golden_generator_streams;
  ]
