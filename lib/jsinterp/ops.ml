(* Abstract operations of ECMA-262: coercions, equality, property access.

   This is where most conformance-relevant behaviour lives, and therefore
   where most quirk injection points sit. Every deviation is guarded by
   [Value.fire], which both tests whether the simulated engine carries the
   bug and records that the buggy path executed. *)

open Value

(* --- errors --- *)

let make_error ctx kind msg =
  let proto =
    (* each error constructor's prototype is registered under its name *)
    match find_proto kind ctx.protos with
    | Some o -> Obj o
    | None -> proto_of ctx "Error"
  in
  let o = make_obj ~oclass:"Error" ~proto () in
  set_own o "name" (mkprop ~enumerable:false (Str kind));
  set_own o "message" (mkprop ~enumerable:false (Str msg));
  Obj o

let throw_error ctx kind msg = raise (Js_throw (make_error ctx kind msg))
let type_error ctx msg = throw_error ctx "TypeError" msg
let range_error ctx msg = throw_error ctx "RangeError" msg
let reference_error ctx msg = throw_error ctx "ReferenceError" msg
let syntax_error ctx msg = throw_error ctx "SyntaxError" msg

(* --- number formatting (ToString applied to a Number) --- *)

(* Split "%.*e" text ("-1.25e-07") into its sign, its significant digits
   without trailing zeros ("125") and the spec's decimal point position
   n = exponent + 1, so that the value is 0.digits * 10^n. *)
let decimal_parts (e_text : string) : bool * string * int =
  let neg = e_text.[0] = '-' in
  let start = if neg then 1 else 0 in
  let epos = String.index e_text 'e' in
  let digits = Buffer.create 20 in
  for i = start to epos - 1 do
    if e_text.[i] <> '.' then Buffer.add_char digits e_text.[i]
  done;
  let d = Buffer.contents digits in
  let k = ref (String.length d) in
  while !k > 1 && d.[!k - 1] = '0' do decr k done;
  let exp = int_of_string (String.sub e_text (epos + 1) (String.length e_text - epos - 1)) in
  (neg, String.sub d 0 !k, exp + 1)

(* Number::toString (ECMA-262 7.1.12.1) from the shortest digits s
   (k of them) and the point position n: integers up to 21 digits pad
   with zeros, a point inside the digits or a value down to 1e-6 lays
   out in fixed notation, and everything else is d.ddde±x. *)
let layout_decimal (neg : bool) (s : string) (n : int) : string =
  let k = String.length s in
  let b = Buffer.create (k + 8) in
  if neg then Buffer.add_char b '-';
  if k <= n && n <= 21 then begin
    Buffer.add_string b s;
    for _ = 1 to n - k do Buffer.add_char b '0' done
  end
  else if 0 < n && n <= 21 then begin
    Buffer.add_string b (String.sub s 0 n);
    Buffer.add_char b '.';
    Buffer.add_string b (String.sub s n (k - n))
  end
  else if -6 < n && n <= 0 then begin
    Buffer.add_string b "0.";
    for _ = 1 to -n do Buffer.add_char b '0' done;
    Buffer.add_string b s
  end
  else begin
    Buffer.add_char b s.[0];
    if k > 1 then begin
      Buffer.add_char b '.';
      Buffer.add_string b (String.sub s 1 (k - 1))
    end;
    Buffer.add_char b 'e';
    Buffer.add_char b (if n - 1 >= 0 then '+' else '-');
    Buffer.add_string b (string_of_int (abs (n - 1)))
  end;
  Buffer.contents b

let number_to_string (f : float) : string =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "Infinity"
  else if f = Float.neg_infinity then "-Infinity"
  else if f = 0.0 then "0" (* both zeros print "0" *)
  else if Float.is_integer f && Float.abs f < 9007199254740992.0 then
    (* exact in an int: the spec's digits-then-zeros layout is the
       integer's own decimal text *)
    string_of_int (Float.to_int f)
  else
    let neg, s, n = decimal_parts (Cutil.Numfmt.shortest_e f) in
    layout_decimal neg s n

(* Number.prototype.toPrecision (ECMA-262 21.1.3.5) for finite [f] and
   1 <= p <= 100: the p digits nearest [f], ties to the larger, laid out
   in fixed notation unless the exponent is below -6 or at least p. The
   tie rule needs the exact expansion (C's "%e" rounds ties to even); a
   double has at most 767 significant decimal digits, so "%.800e" is
   exact and rounding half up reads one digit past the p-th. *)
let number_to_precision (f : float) (p : int) : string =
  let neg = f < 0.0 in
  let digits, e =
    if f = 0.0 then (String.make p '0', 0)
    else begin
      let _, exact, n = decimal_parts (Printf.sprintf "%.800e" (Float.abs f)) in
      let exact = exact ^ String.make (max 0 (p + 1 - String.length exact)) '0' in
      let m = Bytes.of_string (String.sub exact 0 p) in
      let carry = ref (exact.[p] >= '5') in
      let i = ref (p - 1) in
      while !carry && !i >= 0 do
        if Bytes.get m !i = '9' then (Bytes.set m !i '0'; decr i)
        else (Bytes.set m !i (Char.chr (Char.code (Bytes.get m !i) + 1)); carry := false)
      done;
      if !carry then ("1" ^ Bytes.sub_string m 0 (p - 1), n) (* 99.. -> 100.. *)
      else (Bytes.to_string m, n - 1)
    end
  in
  let sign = if neg then "-" else "" in
  if e < -6 || e >= p then
    let mant =
      if p = 1 then digits else String.sub digits 0 1 ^ "." ^ String.sub digits 1 (p - 1)
    in
    Printf.sprintf "%s%se%c%d" sign mant (if e > 0 then '+' else '-') (abs e)
  else if e = p - 1 then sign ^ digits
  else if e >= 0 then
    sign ^ String.sub digits 0 (e + 1) ^ "." ^ String.sub digits (e + 1) (p - e - 1)
  else sign ^ "0." ^ String.make (-(e + 1)) '0' ^ digits

let digit_char d = if d < 10 then Char.chr (d + Char.code '0') else Char.chr (d - 10 + Char.code 'a')

(* Number.prototype.toString(radix) for radix <> 10; integer part exact,
   fraction to a few digits, matching what shells print for common cases. *)
let number_to_string_radix (f : float) (radix : int) : string =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "Infinity"
  else if f = Float.neg_infinity then "-Infinity"
  else begin
    let neg = f < 0.0 in
    let f = Float.abs f in
    let ipart = Float.to_int (Float.trunc f) in
    let frac = f -. Float.trunc f in
    let buf = Buffer.create 16 in
    let rec int_digits i = if i > 0 then (int_digits (i / radix); Buffer.add_char buf (digit_char (i mod radix))) in
    if ipart = 0 then Buffer.add_char buf '0' else int_digits ipart;
    if frac > 0.0 then begin
      Buffer.add_char buf '.';
      let fr = ref frac in
      let steps = ref 0 in
      while !fr > 1e-10 && !steps < 20 do
        fr := !fr *. Float.of_int radix;
        let d = Float.to_int (Float.trunc !fr) in
        Buffer.add_char buf (digit_char d);
        fr := !fr -. Float.trunc !fr;
        incr steps
      done
    end;
    (if neg then "-" else "") ^ Buffer.contents buf
  end

(* --- integer element keys --- *)

(* The element index a Number key names, when it is an integer with
   0 <= f < 2^53. Every such key prints (through [number_to_string]'s
   [string_of_int] arm) as the canonical index string of the same
   integer, so this is a subset of the string path's
   [array_index_of_key (number_to_string f)] domain, and both paths
   reach the same element. Everything else — fractions, negatives, NaN,
   infinities, 2^53 and up — is left to the string path. *)
let index_of_num (f : float) : int option =
  if f >= 0.0 && f < 9007199254740992.0 && Float.is_integer f then
    Some (Float.to_int f)
  else None

(* An element load from array storage: indices past [alen] read as
   holes, with no prototype walk. *)
let get_elem (arr : arr) (i : int) : value =
  if i < arr.alen then arr.elems.(i) else Undefined

(* --- string -> number (the ToNumber grammar) --- *)

let string_to_number (s : string) : float =
  let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\x0b' || c = '\x0c' in
  let n = String.length s in
  let a = ref 0 and b = ref n in
  while !a < n && is_ws s.[!a] do incr a done;
  while !b > !a && is_ws s.[!b - 1] do decr b done;
  let t = String.sub s !a (!b - !a) in
  if t = "" then 0.0
  else if t = "Infinity" || t = "+Infinity" then Float.infinity
  else if t = "-Infinity" then Float.neg_infinity
  else if String.length t > 2 && t.[0] = '0' && (t.[1] = 'x' || t.[1] = 'X')
  then (
    match int_of_string_opt t with
    | Some v -> Float.of_int v
    | None -> Float.nan)
  else
    (* OCaml's float_of_string accepts forms JS rejects ("0x", "_", "nan"):
       validate against the JS decimal grammar first. *)
    let valid =
      let i = ref 0 in
      let len = String.length t in
      let digit () =
        let start = !i in
        while !i < len && t.[!i] >= '0' && t.[!i] <= '9' do incr i done;
        !i > start
      in
      (if !i < len && (t.[!i] = '+' || t.[!i] = '-') then incr i);
      let int_ok = digit () in
      let frac_ok =
        if !i < len && t.[!i] = '.' then (incr i; digit () || int_ok)
        else int_ok
      in
      let exp_ok =
        if frac_ok && !i < len && (t.[!i] = 'e' || t.[!i] = 'E') then begin
          incr i;
          (if !i < len && (t.[!i] = '+' || t.[!i] = '-') then incr i);
          digit ()
        end
        else frac_ok
      in
      exp_ok && !i = len
    in
    if not valid then Float.nan
    else match float_of_string_opt t with Some f -> f | None -> Float.nan

(* --- coercions --- *)

let to_boolean = function
  | Undefined | Null -> false
  | Bool b -> b
  | Num f -> not (Float.is_nan f || f = 0.0)
  | Str s -> s <> ""
  | Obj _ -> true

let rec to_primitive ctx (v : value) ~(hint : [ `Number | `String | `Default ]) : value =
  match v with
  | Obj o ->
      let order =
        match hint with
        | `String -> [ "toString"; "valueOf" ]
        | `Number | `Default -> [ "valueOf"; "toString" ]
      in
      let rec try_methods = function
        | [] -> type_error ctx "cannot convert object to primitive value"
        | m :: rest -> (
            match get_obj ctx o m with
            | Obj { call = Some _; _ } as fn -> (
                match ctx.call_hook ctx fn v [] with
                | Obj _ -> try_methods rest
                | prim -> prim)
            | _ -> try_methods rest)
      in
      try_methods order
  | prim -> prim

and to_number ctx (v : value) : float =
  match v with
  | Undefined -> Float.nan
  | Null -> 0.0
  | Bool b -> if b then 1.0 else 0.0
  | Num f -> f
  | Str s -> string_to_number s
  | Obj _ -> to_number ctx (to_primitive ctx v ~hint:`Number)

and to_string ctx (v : value) : string =
  match v with
  | Undefined -> "undefined"
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num f -> number_to_string f
  | Str s -> s
  | Obj _ -> to_string ctx (to_primitive ctx v ~hint:`String)

(* ToInteger (ES2015 7.1.4): NaN -> 0, truncate toward zero. *)
and to_integer ctx v =
  let f = to_number ctx v in
  if Float.is_nan f then 0.0
  else if f = Float.infinity || f = Float.neg_infinity then f
  else Float.trunc f

and to_int32 ctx v =
  let f = to_number ctx v in
  if Float.is_nan f || Float.is_integer f = false && Float.abs f = Float.infinity then 0l
  else if Float.abs f = Float.infinity then 0l
  else Int32.of_float (Float.rem (Float.trunc f) 4294967296.0)

and to_uint32 ctx v =
  let i = Int32.to_int (to_int32 ctx v) in
  Float.of_int (if i < 0 then i + (1 lsl 32) else i)

(* --- property access --- *)

and get ctx (v : value) (key : string) : value =
  burn ctx 1;
  match v with
  | Undefined -> type_error ctx (Printf.sprintf "cannot read property '%s' of undefined" key)
  | Null -> type_error ctx (Printf.sprintf "cannot read property '%s' of null" key)
  | Str s -> (
      if key = "length" then Num (Float.of_int (String.length s))
      else
        match array_index_of_key key with
        | Some i when i < String.length s -> Str (String.make 1 s.[i])
        | Some _ -> Undefined
        | None -> proto_get ctx (proto_of ctx "String") key v)
  | Num _ -> proto_get ctx (proto_of ctx "Number") key v
  | Bool _ -> proto_get ctx (proto_of ctx "Boolean") key v
  | Obj o -> get_obj ctx o key

and proto_get ctx proto key _receiver =
  match proto with
  | Obj p -> get_obj ctx p key
  | _ -> Undefined

and get_obj ctx (o : obj) (key : string) : value =
  (* array-backed storage first *)
  match o.arr with
  | Some arr when key = "length" -> Num (Float.of_int arr.alen)
  | Some arr -> (
      match array_index_of_key key with
      | Some i -> get_elem arr i
      | None -> get_plain ctx o key)
  | None -> (
      match o.prim with
      | Some (Str s) -> (
          if key = "length" then Num (Float.of_int (String.length s))
          else
            match array_index_of_key key with
            | Some i when i < String.length s -> Str (String.make 1 s.[i])
            | _ -> get_plain ctx o key)
      | _ -> get_plain ctx o key)

and get_plain ctx (o : obj) (key : string) : value =
  match find_own o key with
  | Some p -> (
      match p.getter with
      | Some g when is_callable g -> ctx.call_hook ctx g (Obj o) []
      | _ -> p.v)
  | None -> (
      match o.proto with
      | Obj parent -> get_obj ctx parent key
      | _ -> Undefined)

and has_property ctx (o : obj) (key : string) : bool =
  match o.arr with
  | Some _ when key = "length" -> true
  | Some arr when (match array_index_of_key key with Some i -> i < arr.alen | None -> false) -> true
  | _ -> (
      match find_own o key with
      | Some _ -> true
      | None -> (
          match o.proto with Obj parent -> has_property ctx parent key | _ -> false))

(* [if has_property ctx o key then Some (get_obj ctx o key) else None] in
   one chain walk where the chain is plain objects; a level with array or
   primitive storage takes the two-step form, whose answers differ there. *)
and get_if_present ctx (o : obj) (key : string) : value option =
  match (o.arr, o.prim) with
  | None, None -> (
      match find_own o key with
      | Some p -> (
          match p.getter with
          | Some g when is_callable g -> Some (ctx.call_hook ctx g (Obj o) [])
          | _ -> Some p.v)
      | None -> (
          match o.proto with
          | Obj parent -> get_if_present ctx parent key
          | _ -> None))
  | _ -> if has_property ctx o key then Some (get_obj ctx o key) else None

and has_own ctx (o : obj) (key : string) : bool =
  ignore ctx;
  match o.arr with
  | Some arr -> (
      key = "length"
      || (match array_index_of_key key with
         | Some i -> i < arr.alen
         | None -> find_own o key <> None))
  | None -> find_own o key <> None

(* Growable dense element store. *)
and array_store ctx (o : obj) (arr : arr) (i : int) (v : value) : unit =
  barrier o;
  (match arr.ty with
  | Some ty ->
      (* typed arrays never grow; OOB writes are dropped (or crash, under
         the memory-safety quirk) *)
      if i >= arr.alen then begin
        if fire ctx Quirk.Q_typedarray_oob_write_crash then
          raise (Engine_crash "typed array out-of-bounds store");
        ()
      end
      else arr.elems.(i) <- coerce_typed ctx ty v
  | None ->
      if i >= Array.length arr.elems then begin
        let cap = max 8 (max (i + 1) (2 * Array.length arr.elems)) in
        (* cap the dense allocation so generated monster indices don't OOM
           the host; beyond it, treat as a plain property *)
        if i > 10_000_000 then type_error ctx "array index too large for this engine model"
        else begin
          let n = Array.make cap Undefined in
          Array.blit arr.elems 0 n 0 (Array.length arr.elems);
          arr.elems <- n
        end
      end;
      if i >= arr.alen then arr.alen <- i + 1;
      (* Hermes relocation model: writing below every previously-written
         index relocates the array — cost proportional to its length. *)
      if i < arr.min_written then begin
        if fire ctx Quirk.Q_array_reverse_fill_quadratic then burn ctx (arr.alen / 4 + 1);
        arr.min_written <- i
      end
      else if arr.min_written = max_int then arr.min_written <- i;
      arr.elems.(i) <- v);
  ignore o

and coerce_typed ctx (ty : typed_kind) (v : value) : value =
  let f = to_number ctx v in
  let wrap bits signed =
    let m = 1 lsl bits in
    if Float.is_nan f || Float.abs f = Float.infinity then Num 0.0
    else
      let i = Float.to_int (Float.trunc f) in
      let i = ((i mod m) + m) mod m in
      let i = if signed && i >= m / 2 then i - m else i in
      Num (Float.of_int i)
  in
  match ty with
  | U8 -> wrap 8 false
  | I8 -> wrap 8 true
  | U16 -> wrap 16 false
  | I16 -> wrap 16 true
  | U32 -> wrap 32 false
  | I32 -> wrap 32 true
  | F32 -> Num (if Float.is_nan f then Float.nan else Int32.float_of_bits (Int32.bits_of_float f))
  | F64 -> Num f
  | U8C ->
      if fire ctx Quirk.Q_uint8clamped_wraps then wrap 8 false
      else if Float.is_nan f then Num 0.0
      else Num (Float.min 255.0 (Float.max 0.0 (Float.round f)))

and set_array_length ctx (o : obj) (arr : arr) (v : value) ~strict : unit =
  barrier o;
  if not arr.length_writable then begin
    if strict then type_error ctx "cannot assign to read only property 'length'"
  end
  else begin
    let f = to_uint32 ctx v in
    let n = Float.to_int f in
    if Float.of_int n <> to_number ctx v then range_error ctx "invalid array length";
    if n < arr.alen then begin
      (* truncate *)
      if n < Array.length arr.elems then
        Array.fill arr.elems n (Array.length arr.elems - n) Undefined;
      arr.alen <- n
    end
    else arr.alen <- n
  end

and set ctx ~strict (target : value) (key : string) (v : value) : unit =
  burn ctx 1;
  match target with
  | Undefined | Null ->
      type_error ctx (Printf.sprintf "cannot set property '%s' of %s" key (type_of target))
  | Str _ | Num _ | Bool _ ->
      (* property sets on primitives are silently dropped (sloppy) or throw
         (strict) *)
      if strict then type_error ctx "cannot create property on primitive"
  | Obj o -> set_obj ctx ~strict o key v

and set_obj ctx ~strict (o : obj) (key : string) (v : value) : unit =
  match o.arr with
  | Some arr when key = "length" && arr.ty = None -> set_array_length ctx o arr v ~strict
  | Some arr -> (
      match array_index_of_key key with
      | Some i -> set_elem ctx ~strict o arr i v
      | None -> set_plain ctx ~strict o key v)
  | None -> set_plain ctx ~strict o key v

(* An element store into array storage: the extensible / sealed /
   frozen checks, then [array_store]. *)
and set_elem ctx ~strict (o : obj) (arr : arr) (i : int) (v : value) : unit =
  if (not o.extensible) && arr.ty = None && i >= arr.alen then
    (if strict then type_error ctx "cannot add element to non-extensible array")
  else if not arr.length_writable && arr.ty = None && i >= arr.alen then
    (* frozen/sealed array: length fixed *)
    (if strict then type_error ctx "cannot add property, array is sealed")
  else if arr.elem_attrs <> Elems_frozen
          || fire ctx Quirk.Q_freeze_array_elements_writable
  then array_store ctx o arr i v
  else if strict then
    type_error ctx (Printf.sprintf "cannot assign to read only element %d" i)

and set_plain ctx ~strict (o : obj) (key : string) (v : value) : unit =
  match find_own o key with
  | Some p ->
      if p.writable then begin
        barrier o;
        p.v <- v
      end
      else if strict then
        type_error ctx (Printf.sprintf "cannot assign to read only property '%s'" key)
  | None -> (
      (* setter-less prototype walk: a non-writable prototype prop blocks *)
      let rec proto_blocks (pv : value) =
        match pv with
        | Obj parent -> (
            match find_own parent key with
            | Some p -> not p.writable
            | None -> proto_blocks parent.proto)
        | _ -> false
      in
      if proto_blocks o.proto then (
        if strict then
          type_error ctx (Printf.sprintf "cannot assign to read only property '%s'" key))
      else if not o.extensible then (
        if strict then
          type_error ctx (Printf.sprintf "cannot add property '%s', object is not extensible" key))
      else set_own o key (mkprop v))

and delete ctx ~strict (o : obj) (key : string) : bool =
  burn ctx 1;
  match o.arr with
  | Some _ when key = "length" -> false
  | Some arr when (match array_index_of_key key with Some i -> i < arr.alen | None -> false) ->
      let i = Option.get (array_index_of_key key) in
      (* sealed and frozen elements are non-configurable *)
      if arr.elem_attrs = Elems_open
         || fire ctx Quirk.Q_delete_nonconfigurable_succeeds
      then begin
        barrier o;
        arr.elems.(i) <- Undefined;
        true
      end
      else if strict then
        type_error ctx (Printf.sprintf "cannot delete property '%s'" key)
      else false
  | _ -> (
      match find_own o key with
      | None -> true
      | Some p ->
          if p.configurable || fire ctx Quirk.Q_delete_nonconfigurable_succeeds then begin
            remove_own o key;
            true
          end
          else if strict then
            type_error ctx (Printf.sprintf "cannot delete property '%s'" key)
          else false)

(* enumerable own keys, insertion-ordered, elements first (integer order) —
   the modern property order. *)
and enum_keys ctx (o : obj) : string list =
  ignore ctx;
  let elem_keys =
    match o.arr with
    | Some arr ->
        let ks = ref [] in
        for i = arr.alen - 1 downto 0 do
          if arr.elems.(i) <> Undefined || arr.ty <> None then ks := string_of_int i :: !ks
        done;
        !ks
    | None -> []
  in
  let named =
    List.filter_map (fun (k, p) -> if p.enumerable then Some k else None) o.props
  in
  elem_keys @ named

(* --- equality and relational operators --- *)

and strict_equals (a : value) (b : value) : bool =
  match (a, b) with
  | Undefined, Undefined | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Num x, Num y -> x = y (* NaN <> NaN, +0 = -0: float equality matches *)
  | Str x, Str y -> String.equal x y
  | Obj x, Obj y -> x == y
  | _ -> false

and abstract_equals ctx (a : value) (b : value) : bool =
  match (a, b) with
  | Undefined, Null | Null, Undefined ->
      not (fire ctx Quirk.Q_codegen_null_eq_undefined_false)
  | Num _, Num _ | Str _, Str _ | Bool _, Bool _ | Obj _, Obj _
  | Undefined, Undefined | Null, Null ->
      strict_equals a b
  | Num x, Str s -> x = string_to_number s
  | Str s, Num x -> string_to_number s = x
  | Bool _, _ -> abstract_equals ctx (Num (to_number ctx a)) b
  | _, Bool _ -> abstract_equals ctx a (Num (to_number ctx b))
  | (Num _ | Str _), Obj _ -> abstract_equals ctx a (to_primitive ctx b ~hint:`Default)
  | Obj _, (Num _ | Str _) -> abstract_equals ctx (to_primitive ctx a ~hint:`Default) b
  | _ -> false

(* Abstract Relational Comparison; [swap] handles > and <= mirroring. *)
and relational ctx (op : [ `Lt | `Gt | `Le | `Ge ]) (a : value) (b : value) : value =
  let pa = to_primitive ctx a ~hint:`Number in
  let pb = to_primitive ctx b ~hint:`Number in
  let cmp x y =
    match (x, y) with
    | Str s1, Str s2 when not (fire ctx Quirk.Q_codegen_string_relational_numeric) ->
        if String.compare s1 s2 < 0 then `T else `F
    | _ ->
        let n1 = to_number ctx x and n2 = to_number ctx y in
        if Float.is_nan n1 || Float.is_nan n2 then `U
        else if n1 < n2 then `T
        else `F
  in
  let r =
    match op with
    | `Lt -> cmp pa pb
    | `Gt -> cmp pb pa
    | `Le -> ( match cmp pb pa with `T -> `F | `F -> `T | `U -> `U)
    | `Ge -> ( match cmp pa pb with `T -> `F | `F -> `T | `U -> `U)
  in
  Bool (match r with `T -> true | `F | `U -> false)

(* The [+] operator. *)
and add ctx (a : value) (b : value) : value =
  let pa = to_primitive ctx a ~hint:`Default in
  let pb = to_primitive ctx b ~hint:`Default in
  let bool_concat =
    (match (pa, pb) with Bool _, _ | _, Bool _ -> true | _ -> false)
    && fire ctx Quirk.Q_codegen_plus_bool_concat
  in
  match (pa, pb) with
  | Str _, _ | _, Str _ ->
      let a = to_string ctx pa and b = to_string ctx pb in
      (* string building costs real memory traffic; charge fuel so that
         quadratic concatenation loops register as slow, like they are *)
      burn ctx (1 + ((String.length a + String.length b) / 64));
      Str (a ^ b)
  | _ when bool_concat -> Str (to_string ctx pa ^ to_string ctx pb)
  | _ ->
      let x = to_number ctx pa and y = to_number ctx pb in
      let sum = x +. y in
      if
        Float.is_integer x && Float.is_integer y && Float.is_integer sum
        && Float.abs sum >= 2147483648.0
        && Float.abs x < 2147483648.0 && Float.abs y < 2147483648.0
        && fire ctx Quirk.Q_opt_int_add_overflow_wraps
      then
        (* simulated lost overflow check in the optimizing tier *)
        let wrapped = Int32.to_float (Int32.of_float sum) in
        Num wrapped
      else Num sum

(* --- misc --- *)

and is_array = function Obj { arr = Some { ty = None; _ }; _ } -> true | _ -> false

and make_array ctx (vals : value list) : obj =
  let o = make_obj ~oclass:"Array" ~proto:(proto_of ctx "Array") () in
  let elems = Array.of_list vals in
  o.arr <-
    Some
      {
        elems;
        alen = Array.length elems;
        ty = None;
        length_writable = true;
        elem_attrs = Elems_open;
        min_written = (if Array.length elems = 0 then max_int else 0);
      };
  o

and array_values (o : obj) : value list =
  match o.arr with
  | Some arr -> Array.to_list (Array.sub arr.elems 0 (min arr.alen (Array.length arr.elems)))
  | None -> []

(* [o[k]] for an evaluated key: the integer element path when the
   receiver has array storage and [k] is an index Number, else [get] on
   ToString(k). Both burn the 1 fuel [get]/[set] burn on entry, and
   number-to-string consults no checkpoint, so the two paths are
   indistinguishable in output, fuel and touched set. The compiled core
   and the tree-walker both go through these two functions. *)
let get_index ctx (ov : value) (kv : value) : value =
  match (ov, kv) with
  | Obj { arr = Some arr; _ }, Num f -> (
      match index_of_num f with
      | Some i ->
          burn ctx 1;
          get_elem arr i
      | None -> get ctx ov (number_to_string f))
  | _ -> get ctx ov (to_string ctx kv)

(* [o[k] = v] for an evaluated key; see [get_index]. *)
let set_index ctx ~strict (ov : value) (kv : value) (v : value) : unit =
  match (ov, kv) with
  | Obj ({ arr = Some arr; _ } as o), Num f -> (
      match index_of_num f with
      | Some i ->
          burn ctx 1;
          set_elem ctx ~strict o arr i v
      | None -> set ctx ~strict ov (number_to_string f) v)
  | _ -> set ctx ~strict ov (to_string ctx kv) v

(* SameValueZero, used by [includes]. *)
let same_value_zero a b =
  match (a, b) with
  | Num x, Num y -> x = y || (Float.is_nan x && Float.is_nan y)
  | _ -> strict_equals a b

let to_object ctx (v : value) : obj =
  match v with
  | Obj o -> o
  | Str s ->
      let o = make_obj ~oclass:"String" ~proto:(proto_of ctx "String") () in
      o.prim <- Some (Str s);
      set_own o "length" (mkprop ~writable:false ~enumerable:false ~configurable:false
                            (Num (Float.of_int (String.length s))));
      o
  | Num f ->
      let o = make_obj ~oclass:"Number" ~proto:(proto_of ctx "Number") () in
      o.prim <- Some (Num f);
      o
  | Bool b ->
      let o = make_obj ~oclass:"Boolean" ~proto:(proto_of ctx "Boolean") () in
      o.prim <- Some (Bool b);
      o
  | Undefined | Null -> type_error ctx "cannot convert undefined or null to object"
