(* Number.prototype, Number statics, Math, and the numeric global
   functions. The Rhino toFixed bug (Listing 4) lives here. *)

open Value
open Builtins_util

let js_parse_int ctx (s : string) (radix : value) : float =
  let s = String.trim s in
  let sign, s =
    if s <> "" && s.[0] = '-' then (-1.0, String.sub s 1 (String.length s - 1))
    else if s <> "" && s.[0] = '+' then (1.0, String.sub s 1 (String.length s - 1))
    else (1.0, s)
  in
  let radix_n =
    match radix with Undefined -> 0 | v -> Float.to_int (Ops.to_integer ctx v)
  in
  let auto_hex =
    String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X')
  in
  let radix_n, s =
    if (radix_n = 0 || radix_n = 16) && auto_hex then
      if fire ctx Quirk.Q_parseint_no_hex_prefix then (10, s)
      else (16, String.sub s 2 (String.length s - 2))
    else if radix_n = 0 then (10, s)
    else (radix_n, s)
  in
  if radix_n < 2 || radix_n > 36 then Float.nan
  else begin
    let digit c =
      if c >= '0' && c <= '9' then Some (Char.code c - Char.code '0')
      else if c >= 'a' && c <= 'z' then Some (Char.code c - Char.code 'a' + 10)
      else if c >= 'A' && c <= 'Z' then Some (Char.code c - Char.code 'A' + 10)
      else None
    in
    let acc = ref 0.0 and seen = ref false and stop = ref false in
    String.iter
      (fun c ->
        if not !stop then
          match digit c with
          | Some d when d < radix_n ->
              seen := true;
              acc := (!acc *. Float.of_int radix_n) +. Float.of_int d
          | _ -> stop := true)
      s;
    if !seen then sign *. !acc else Float.nan
  end

let js_parse_float ctx (s : string) : float =
  let s = String.trim s in
  if fire ctx Quirk.Q_parsefloat_trailing_nan then
    (* buggy engine requires the whole string to be numeric *)
    Ops.string_to_number s
  else begin
    (* longest numeric prefix *)
    let n = String.length s in
    let best = ref Float.nan in
    (try
       for len = n downto 1 do
         let prefix = String.sub s 0 len in
         let v = Ops.string_to_number prefix in
         if (not (Float.is_nan v)) && String.trim prefix = prefix then begin
           best := v;
           raise Exit
         end
       done
     with Exit -> ());
    !best
  end

let install ctx (number_proto : obj) (number_ctor : obj) (math : obj) : unit =
  (* --- Number.prototype --- *)
  def_method ctx number_proto "toString" 1 (fun ctx this args ->
      let f = this_number ctx this in
      match arg 0 args with
      | Undefined -> Str (Ops.number_to_string f)
      | v ->
          let radix = Float.to_int (Ops.to_integer ctx v) in
          if radix = 10 then Str (Ops.number_to_string f)
          else if radix < 2 || radix > 36 then
            if fire ctx Quirk.Q_tostring_radix_no_rangeerror then
              Str (Ops.number_to_string f)
            else Ops.range_error ctx "toString() radix must be between 2 and 36"
          else Str (Ops.number_to_string_radix f radix));

  def_method ctx number_proto "valueOf" 0 (fun ctx this _ ->
      Num (this_number ctx this));

  (* Number.prototype.toFixed — ECMA-262 requires 0 <= digits <= 100
     (<= 20 before ES2018); Rhino (Listing 4) skips the check. *)
  def_method ctx number_proto "toFixed" 1 (fun ctx this args ->
      let f = this_number ctx this in
      let digits = Float.to_int (Ops.to_integer ctx (arg 0 args)) in
      if digits < 0 || digits > 100 then begin
        if fire ctx Quirk.Q_tofixed_no_rangeerror then
          (* the buggy path rounds to integer and drops the sign handling
             the way old Rhino did: print the truncated value *)
          Str (Ops.number_to_string (Float.trunc f))
        else Ops.range_error ctx "toFixed() digits argument must be between 0 and 100"
      end
      else if Float.is_nan f then Str "NaN"
      else if Float.abs f >= 1e21 then Str (Ops.number_to_string f)
      else Str (Printf.sprintf "%.*f" digits f));

  def_method ctx number_proto "toPrecision" 1 (fun ctx this args ->
      let f = this_number ctx this in
      match arg 0 args with
      | Undefined -> Str (Ops.number_to_string f)
      | v ->
          let p = Float.to_int (Ops.to_integer ctx v) in
          if not (Float.is_finite f) then Str (Ops.number_to_string f)
          else if p < 1 || p > 100 then
            if fire ctx Quirk.Q_toprecision_zero_accepted then
              Str (Ops.number_to_string f)
            else Ops.range_error ctx "toPrecision() argument must be between 1 and 100"
          else Str (Ops.number_to_precision f p));

  (* --- Number statics --- *)
  def_value number_ctor "MAX_SAFE_INTEGER" ~writable:false (num 9007199254740991.0);
  def_value number_ctor "MIN_SAFE_INTEGER" ~writable:false (num (-9007199254740991.0));
  def_value number_ctor "MAX_VALUE" ~writable:false (num Float.max_float);
  def_value number_ctor "MIN_VALUE" ~writable:false (num 5e-324);
  def_value number_ctor "EPSILON" ~writable:false (num epsilon_float);
  def_value number_ctor "POSITIVE_INFINITY" ~writable:false (num Float.infinity);
  def_value number_ctor "NEGATIVE_INFINITY" ~writable:false (num Float.neg_infinity);
  def_value number_ctor "NaN" ~writable:false (num Float.nan);

  def_method ctx number_ctor "isInteger" 1 (fun ctx _ args ->
      match arg 0 args with
      | Num f -> bool_ (Float.is_integer f)
      | v ->
          if fire ctx Quirk.Q_number_isinteger_coerces then
            let f = Ops.to_number ctx v in
            bool_ ((not (Float.is_nan f)) && Float.is_integer f)
          else bool_ false);

  def_method ctx number_ctor "isNaN" 1 (fun _ _ args ->
      match arg 0 args with Num f -> bool_ (Float.is_nan f) | _ -> bool_ false);

  def_method ctx number_ctor "isFinite" 1 (fun _ _ args ->
      match arg 0 args with
      | Num f -> bool_ (Float.is_finite f)
      | _ -> bool_ false);

  def_method ctx number_ctor "isSafeInteger" 1 (fun _ _ args ->
      match arg 0 args with
      | Num f -> bool_ (Float.is_integer f && Float.abs f <= 9007199254740991.0)
      | _ -> bool_ false);

  def_method ctx number_ctor "parseFloat" 1 (fun ctx _ args ->
      num (js_parse_float ctx (Ops.to_string ctx (arg 0 args))));
  def_method ctx number_ctor "parseInt" 2 (fun ctx _ args ->
      num (js_parse_int ctx (Ops.to_string ctx (arg 0 args)) (arg 1 args)));

  (* --- Math --- *)
  let unary name f =
    def_method ctx math name 1 (fun ctx _ args ->
        num (f (Ops.to_number ctx (arg 0 args))))
  in
  unary "abs" Float.abs;
  unary "floor" Float.floor;
  unary "ceil" Float.ceil;
  unary "trunc" Float.trunc;
  unary "sqrt" Float.sqrt;
  unary "cbrt" Float.cbrt;
  unary "sign" (fun f ->
      if Float.is_nan f then Float.nan
      else if f > 0.0 then 1.0
      else if f < 0.0 then -1.0
      else f);
  unary "round" (fun f ->
      (* JS rounds .5 toward +inf, unlike C round *)
      Float.floor (f +. 0.5));
  unary "log" Float.log;
  unary "log2" (fun f -> Float.log f /. Float.log 2.0);
  unary "log10" Float.log10;
  unary "exp" Float.exp;
  unary "sin" Float.sin;
  unary "cos" Float.cos;
  unary "tan" Float.tan;
  unary "atan" Float.atan;

  def_method ctx math "pow" 2 (fun ctx _ args ->
      num (Float.pow (Ops.to_number ctx (arg 0 args)) (Ops.to_number ctx (arg 1 args))));
  def_method ctx math "atan2" 2 (fun ctx _ args ->
      num (Float.atan2 (Ops.to_number ctx (arg 0 args)) (Ops.to_number ctx (arg 1 args))));
  def_method ctx math "max" 2 (fun ctx _ args ->
      match args with
      | [] -> num Float.neg_infinity
      | _ ->
          let ns = List.map (Ops.to_number ctx) args in
          if List.exists Float.is_nan ns then num Float.nan
          else num (List.fold_left Float.max Float.neg_infinity ns));
  def_method ctx math "min" 2 (fun ctx _ args ->
      match args with
      | [] -> num Float.infinity
      | _ ->
          let ns = List.map (Ops.to_number ctx) args in
          if List.exists Float.is_nan ns then num Float.nan
          else num (List.fold_left Float.min Float.infinity ns));
  def_method ctx math "hypot" 2 (fun ctx _ args ->
      let ns = List.map (Ops.to_number ctx) args in
      num (Float.sqrt (List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 ns)));
  (* deterministic "random": differential testing needs identical outputs
     across testbeds, so every simulated engine shares this LCG seeded per
     run (real Comfort avoids Math.random in generated programs). *)
  let rand_state = ref 88172645463325252 in
  def_method ctx math "random" 0 (fun _ _ _ ->
      rand_state := ((!rand_state * 25214903917) + 11) land 0x3FFFFFFFFFFFF;
      num (Float.of_int !rand_state /. Float.of_int 0x3FFFFFFFFFFFF));

  def_value math "PI" ~writable:false (num Float.pi);
  def_value math "E" ~writable:false (num (Float.exp 1.0));
  def_value math "LN2" ~writable:false (num (Float.log 2.0));
  def_value math "LN10" ~writable:false (num (Float.log 10.0));
  def_value math "SQRT2" ~writable:false (num (Float.sqrt 2.0))
