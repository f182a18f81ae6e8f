(* Byte-pair-encoding tokenizer (paper §3.2).

   Pre-tokenization splits source text into word runs, operator runs,
   single punctuation characters and whitespace; BPE merges are then
   learned inside word runs only, exactly the "common keywords become whole
   tokens, rare identifiers break into subwords" behaviour the paper
   describes. The vocabulary maps every resulting symbol to an integer id
   for the n-gram model. *)

type token = string

let is_word_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true
  | _ -> false

let is_op_char c = String.contains "+-*/%=<>!&|^~?:" c

(* Split text into pre-tokens. Whitespace is preserved as tokens so that the
   model learns layout; newline runs collapse to a single "\n". *)
let pre_tokenize (text : string) : token list =
  let n = String.length text in
  let out = ref [] in
  let i = ref 0 in
  let take pred =
    let start = !i in
    while !i < n && pred text.[!i] do incr i done;
    String.sub text start (!i - start)
  in
  while !i < n do
    let c = text.[!i] in
    if is_word_char c then out := take is_word_char :: !out
    else if c = ' ' || c = '\t' then out := take (fun c -> c = ' ' || c = '\t') :: !out
    else if c = '\n' || c = '\r' then begin
      ignore (take (fun c -> c = '\n' || c = '\r'));
      out := "\n" :: !out
    end
    else if is_op_char c then out := take is_op_char :: !out
    else begin
      incr i;
      out := String.make 1 c :: !out
    end
  done;
  List.rev !out

(* --- merge learning --- *)

type t = {
  merges : (string * string) list;        (* in learned order *)
  vocab : (string, int) Hashtbl.t;
  rev : (int, string) Hashtbl.t;
  mutable next_id : int;
  encoded : (string, int list) Hashtbl.t;
      (* word run -> its ids: [apply_merges] runs every merge pass over
         the word, and the generator encodes the same few seed headers
         all campaign long *)
}

let intern t (s : string) : int =
  match Hashtbl.find_opt t.vocab s with
  | Some id -> id
  | None ->
      let id = t.next_id in
      t.next_id <- id + 1;
      Hashtbl.replace t.vocab s id;
      Hashtbl.replace t.rev id s;
      id

let token_of t id = Hashtbl.find_opt t.rev id

(* Apply the learned merges to the character split of one word. *)
let apply_merges (merges : (string * string) list) (word : string) : string list =
  let symbols = ref (List.init (String.length word) (fun i -> String.make 1 word.[i])) in
  List.iter
    (fun (a, b) ->
      let rec merge = function
        | x :: y :: rest when x = a && y = b -> (a ^ b) :: merge rest
        | x :: rest -> x :: merge rest
        | [] -> []
      in
      symbols := merge !symbols)
    merges;
  !symbols

(* Learn [n_merges] merges from word-frequency statistics. *)
let learn ?(n_merges = 200) (text : string) : t =
  let pre = pre_tokenize text in
  (* word frequency table *)
  let freq : (string, int) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun tok ->
      if String.length tok > 0 && is_word_char tok.[0] then
        Hashtbl.replace freq tok (1 + Option.value (Hashtbl.find_opt freq tok) ~default:0))
    pre;
  (* represent each distinct word as a mutable symbol list *)
  let words =
    Hashtbl.fold (fun w c acc -> (ref (List.init (String.length w) (fun i -> String.make 1 w.[i])), c) :: acc) freq []
    |> List.sort (fun (a, _) (b, _) -> compare (String.concat "" !a) (String.concat "" !b))
  in
  let merges = ref [] in
  (try
     for _ = 1 to n_merges do
       (* count adjacent pairs weighted by word frequency *)
       let pairs : (string * string, int) Hashtbl.t = Hashtbl.create 256 in
       List.iter
         (fun (syms, c) ->
           let rec go = function
             | a :: (b :: _ as rest) ->
                 Hashtbl.replace pairs (a, b)
                   (c + Option.value (Hashtbl.find_opt pairs (a, b)) ~default:0);
                 go rest
             | _ -> ()
           in
           go !syms)
         words;
       if Hashtbl.length pairs = 0 then raise Exit;
       (* deterministically pick the most frequent pair *)
       let best =
         Hashtbl.fold (fun k v acc -> (v, k) :: acc) pairs []
         |> List.sort (fun (v1, k1) (v2, k2) ->
                match compare v2 v1 with 0 -> compare k1 k2 | c -> c)
         |> List.hd
       in
       let count, (a, b) = best in
       if count < 2 then raise Exit;
       merges := (a, b) :: !merges;
       List.iter
         (fun (syms, _) ->
           let rec merge = function
             | x :: y :: rest when x = a && y = b -> (a ^ b) :: merge rest
             | x :: rest -> x :: merge rest
             | [] -> []
           in
           syms := merge !syms)
         words
     done
   with Exit -> ());
  let t =
    {
      merges = List.rev !merges;
      vocab = Hashtbl.create 512;
      rev = Hashtbl.create 512;
      next_id = 0;
      encoded = Hashtbl.create 64;
    }
  in
  (* stabilise ids: intern the whole corpus encoding *)
  ignore (intern t "<EOF>");
  List.iter
    (fun tok ->
      if String.length tok > 0 && is_word_char tok.[0] then
        List.iter (fun s -> ignore (intern t s)) (apply_merges t.merges tok)
      else ignore (intern t tok))
    pre;
  t

(* Encode arbitrary text; unseen characters intern new ids on the fly.
   A word run's ids are memoised on its first encoding, which interns its
   symbols in the order an unmemoised encoding would: an id, once
   interned, never changes. *)
let encode (t : t) (text : string) : int list =
  List.concat_map
    (fun tok ->
      if String.length tok > 0 && is_word_char tok.[0] then (
        match Hashtbl.find_opt t.encoded tok with
        | Some ids -> ids
        | None ->
            let ids = List.map (intern t) (apply_merges t.merges tok) in
            Hashtbl.replace t.encoded tok ids;
            ids)
      else [ intern t tok ])
    (pre_tokenize text)

let decode (t : t) (ids : int list) : string =
  String.concat "" (List.filter_map (token_of t) ids)

let eof_id (t : t) : int = Hashtbl.find t.vocab "<EOF>"

(* Character-level "tokenizer" for the DeepSmith baseline: every character
   is its own token, no merges. *)
let char_tokenizer () : t =
  {
    merges = [];
    vocab = Hashtbl.create 256;
    rev = Hashtbl.create 256;
    next_id = 0;
    encoded = Hashtbl.create 1;
  }

let encode_chars (t : t) (text : string) : int list =
  ignore (intern t "<EOF>");
  List.init (String.length text) (fun i -> intern t (String.make 1 text.[i]))
