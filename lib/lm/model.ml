(* Trained language models over the embedded corpus.

   [comfort ()] is the Comfort generator's model: BPE tokens, order-8
   context. [deepsmith ()] is the baseline: character tokens, order-4 —
   the same machinery with shorter modelled dependencies, standing in for
   DeepSmith's LSTM. Both are memoised; training is a one-off cost like the
   paper's 30 GPU-hours, at laptop scale. *)

type t = {
  tokenizer : Bpe.t;
  model : Ngram.t;
  char_level : bool;
}

let bos = -1

let train_bpe ?(order = 8) (programs : string list) : t =
  let tok = Bpe.learn (String.concat "\n\n" programs) in
  let model = Ngram.create ~order ~bos in
  let eof = Bpe.eof_id tok in
  List.iter
    (fun p -> Ngram.add_sequence model (Bpe.encode tok p @ [ eof ]))
    programs;
  { tokenizer = tok; model; char_level = false }

let train_chars ?(order = 4) (programs : string list) : t =
  let tok = Bpe.char_tokenizer () in
  let model = Ngram.create ~order ~bos in
  (* encoding any text interns <EOF> first *)
  ignore (Bpe.encode_chars tok "");
  let eof = Bpe.eof_id tok in
  List.iter
    (fun p -> Ngram.add_sequence model (Bpe.encode_chars tok p @ [ eof ]))
    programs;
  { tokenizer = tok; model; char_level = true }

let comfort : t Lazy.t = lazy (train_bpe Js_corpus.programs)
let deepsmith : t Lazy.t = lazy (train_chars Js_corpus.programs)

let encode (t : t) (text : string) : int list =
  if t.char_level then Bpe.encode_chars t.tokenizer text
  else Bpe.encode t.tokenizer text

let eof (t : t) : int = Bpe.eof_id t.tokenizer

(* Generate token ids continuing [prefix] until the predicate [stop] accepts
   the text so far, <EOF> is produced, or [max_tokens] is hit. Returns the
   full token list including the prefix. *)
let generate (t : t) (rng : Cutil.Rng.t) ~(prefix : string) ~(k : int)
    ~(max_tokens : int) ~(stop : string -> bool) : string =
  let prefix_ids = encode t prefix in
  (* [Ngram.sample] never consults more than [order - 1] trailing
     tokens, so the generation loop keeps a fixed window of that many
     (oldest first, shifted in place per token) instead of the full
     history — re-reversing an unbounded history per sampled token made
     long programs quadratic in their own length, which the campaign
     profiler surfaced as the bulk of the generate stage. The initial
     history is padded with [order - 1] begin markers, so the window is
     always full. *)
  let ctx_len = Ngram.order t.model - 1 in
  let window =
    let hist = Array.of_list (Ngram.initial_history t.model prefix_ids) in
    Array.sub hist (Array.length hist - ctx_len) ctx_len
  in
  let acc = Buffer.create 256 in
  Buffer.add_string acc prefix;
  (* seed stateful stop predicates with the prefix; its own verdict is
     ignored, as at least one token is always sampled *)
  let (_ : bool) = stop prefix in
  let eof_id = eof t in
  let continue_ = ref true in
  let steps = ref 0 in
  while !continue_ && !steps < max_tokens do
    incr steps;
    match Ngram.sample t.model rng window ~k with
    | None -> continue_ := false
    | Some tok when tok = eof_id -> continue_ := false
    | Some tok ->
        let chunk =
          match Bpe.token_of t.tokenizer tok with
          | Some s ->
              Buffer.add_string acc s;
              s
          | None -> ""
        in
        if ctx_len > 0 then begin
          Array.blit window 1 window 0 (ctx_len - 1);
          window.(ctx_len - 1) <- tok
        end;
        if stop chunk then continue_ := false
  done;
  Buffer.contents acc
