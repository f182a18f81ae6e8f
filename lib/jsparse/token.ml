(* Lexical tokens for the JavaScript subset. *)

type t =
  | Tnum of float
  | Tstr of string
  | Ttemplate of part list
  | Tregexp of string * string (* body, flags *)
  | Tident of string
  | Tkeyword of string
  | Tpunct of string
  | Teof

and part = Pstr of string | Psub of t list
    (* a template substitution is lexed to a token list and re-parsed *)

let to_string = function
  | Tnum f -> Printf.sprintf "number %g" f
  | Tstr s -> Printf.sprintf "string %S" s
  | Ttemplate _ -> "template literal"
  | Tregexp (b, f) -> Printf.sprintf "regexp /%s/%s" b f
  | Tident s -> Printf.sprintf "identifier %s" s
  | Tkeyword s -> Printf.sprintf "keyword %s" s
  | Tpunct s -> Printf.sprintf "'%s'" s
  | Teof -> "end of input"
