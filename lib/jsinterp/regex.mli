(** Miniature JavaScript regular-expression engine.

    A backtracking matcher supporting literals, [.], character classes with
    ranges and negation, the common escapes, anchors, alternation,
    capturing and non-capturing groups, and greedy/lazy quantifiers
    including bounded repetition. JS semantics (leftmost match with ordered
    alternation, capture reset on group re-entry) differ from POSIX, which
    is why this is hand-built rather than mapped onto the [re] library. *)

type node =
  | Char of char
  | Any
  | Class of bool * (char * char) list  (** negated?, ranges *)
  | Start
  | End
  | Group of int option * node list     (** capture index or [None] *)
  | Alt of node list list
  | Repeat of node * int * int option * bool  (** node, min, max, greedy *)

type prog = {
  nodes : node list;
  ngroups : int;
  flag_g : bool;
  flag_i : bool;
  flag_m : bool;
}

(** Engine-deviation knobs consulted at match time (the paper's "Regex
    Engine" bug component, Fig. 7). *)
type semantics = {
  dot_matches_newline : bool;
  ignorecase_broken : bool;
  class_negation_broken : bool;
}

exception Parse_error of string

(** Compile a pattern and flag string.
    @raise Parse_error on invalid patterns or flags. *)
val compile : string -> string -> prog

type match_result = {
  m_start : int;
  m_end : int;
  m_groups : (int * int) option array;  (** capture [i] is groups.(i-1) *)
}

(** Leftmost match at or after [start]. [sem] defaults to the standard
    semantics, every knob off. *)
val exec : ?sem:semantics -> prog -> string -> int -> match_result option
