(* The Comfort test-program generator (paper §3.2).

   Samples a seed function header, extends it with top-k language-model
   sampling, and terminates when braces match, the model emits <EOF>, or
   the token cap is reached. Generated programs are screened by the
   JSHint-substitute syntax check; a configurable fraction of syntactically
   invalid programs is kept to exercise engine parsers (the paper keeps
   20%). *)

type t = {
  model : Lm.Model.t;
  rng : Cutil.Rng.t;
  top_k : int;
  keep_invalid : float;  (** fraction of invalid programs retained *)
}

let create ?(seed = 1) ?(top_k = 10) ?(keep_invalid = 0.2)
    ?(model = Lazy.force Lm.Model.comfort) () : t =
  { model; rng = Cutil.Rng.create seed; top_k; keep_invalid }

(* The length cap per program, in tokens (the paper's). *)
let max_tokens = 5000

(* Termination test: the brackets opened by the program are matched again
   (and at least one brace was seen). The incremental form
   [Lm.Model.generate] wants: one stateful closure per generation, fed
   the prefix and then every appended chunk, carrying the brace balance
   across calls, without a per-token whole-string rescan. *)
let brace_stop () : string -> bool =
  let bal = ref 0 and seen = ref false in
  fun chunk ->
    String.iter
      (fun c ->
        if c = '{' then begin
          incr bal;
          seen := true
        end
        else if c = '}' then decr bal)
      chunk;
    !seen && !bal <= 0

(* One raw sample from the model. *)
let sample_program (g : t) : string =
  let header = Cutil.Rng.pick g.rng Lm.Js_corpus.seed_headers in
  Lm.Model.generate g.model g.rng ~prefix:header ~k:g.top_k
    ~max_tokens ~stop:(brace_stop ())

(* Samples drawn per test case before giving up. *)
let attempts_per_case = 50

(* One sample through the screening policy: all valid programs are kept;
   invalid ones survive with probability [keep_invalid]. *)
let attempt (g : t) : (Testcase.t * Jsinterp.Run.frontend option) option =
  let src = sample_program g in
  let ((tc, _) as parsed) = Testcase.make_parsed Testcase.P_generated src in
  if tc.Testcase.tc_syntax_valid || Cutil.Rng.chance g.rng g.keep_invalid then
    Some parsed
  else None

let generate (g : t) ~(n : int) : Testcase.t list =
  let out = ref [] in
  let count = ref 0 in
  let attempts = ref 0 in
  while !count < n && !attempts < n * attempts_per_case do
    incr attempts;
    match attempt g with
    | Some (tc, _) ->
        out := tc :: !out;
        incr count
    | None -> ()
  done;
  List.rev !out

let next (g : t) : (Testcase.t * Jsinterp.Run.frontend option) option =
  let rec go k =
    if k = 0 then None
    else match attempt g with Some _ as r -> r | None -> go (k - 1)
  in
  go attempts_per_case

(* Syntactic validity rate over [n] raw samples — the Fig. 9 passing-rate
   metric, measured before any screening. *)
let validity_rate (g : t) ~(n : int) : float =
  let valid = ref 0 in
  for _ = 1 to n do
    if Jsparse.Parser.is_valid (sample_program g) then incr valid
  done;
  Float.of_int !valid /. Float.of_int n
