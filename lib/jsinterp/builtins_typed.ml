(* TypedArray constructors (Uint8Array & friends) and DataView.

   The SpiderMonkey fractional-length bug (Listing 3) and the JSC
   set-from-string bug (Listing 5) live here. *)

open Value
open Builtins_util

let make_typed ctx (ty : typed_kind) (len : int) : obj =
  let o = make_obj ~oclass:"TypedArray" ~proto:(proto_of ctx "TypedArray") () in
  o.arr <-
    Some
      {
        elems = Array.make (max len 0) (Num 0.0);
        alen = max len 0;
        ty = Some ty;
        length_writable = false;
        elem_attrs = Elems_open;
        min_written = max_int;
      };
  o

let typed_ctor ctx (ty : typed_kind) : obj =
  make_native ctx (typed_kind_name ty) 1 (fun ctx _ args ->
      match arg 0 args with
      | Undefined -> Obj (make_typed ctx ty 0)
      | Num f when not (Float.is_integer f) ->
          (* ECMA-262 converts via ToIndex; old SpiderMonkey threw *)
          if fire ctx Quirk.Q_uint32array_fractional_length_typeerror then
            Ops.type_error ctx "invalid typed array length"
          else if f < 0.0 then Ops.range_error ctx "invalid typed array length"
          else Obj (make_typed ctx ty (Float.to_int (Float.trunc f)))
      | Num f ->
          if f < 0.0 || f > 100_000_000.0 then
            Ops.range_error ctx "invalid typed array length"
          else begin
            burn ctx (Float.to_int f / 8);
            Obj (make_typed ctx ty (Float.to_int f))
          end
      | Obj ({ arr = Some src; _ }) ->
          let t = make_typed ctx ty src.alen in
          let dst = Option.get t.arr in
          for i = 0 to src.alen - 1 do
            dst.elems.(i) <- Ops.coerce_typed ctx ty src.elems.(i)
          done;
          Obj t
      | v ->
          let n = Float.to_int (Ops.to_integer ctx v) in
          Obj (make_typed ctx ty (max 0 n)))

let install ctx (typed_proto : obj) : unit =
  (* %TypedArray%.prototype.set(source, offset) — Listing 5 *)
  def_method ctx typed_proto "set" 2 (fun ctx this args ->
      let o, dst =
        match this with
        | Obj ({ arr = Some ({ ty = Some _; _ } as a); _ } as o) -> (o, a)
        | _ -> Ops.type_error ctx "set called on a non-typed-array"
      in
      barrier o;
      let offset = Float.to_int (Ops.to_integer ctx (arg 1 args)) in
      if offset < 0 then Ops.range_error ctx "invalid or out-of-range index";
      let source_values =
        match arg 0 args with
        | Obj ({ arr = Some src; _ }) ->
            Array.to_list (Array.sub src.elems 0 src.alen)
        | Str s ->
            (* ECMA-262: the argument is treated as an array-like; a string
               of digits becomes its characters. JSC threw TypeError. *)
            if fire ctx Quirk.Q_typedarray_set_string_typeerror then
              Ops.type_error ctx "Argument must be an array-like object"
            else List.init (String.length s) (fun i -> Str (String.make 1 s.[i]))
        | Obj src_obj ->
            let len = Float.to_int (Ops.to_integer ctx (Ops.get_obj ctx src_obj "length")) in
            List.init (max 0 len) (fun i -> Ops.get_obj ctx src_obj (string_of_int i))
        | _ -> Ops.type_error ctx "Argument must be an array-like object"
      in
      if offset + List.length source_values > dst.alen then
        Ops.range_error ctx "offset is out of bounds";
      let ty = Option.get dst.ty in
      List.iteri
        (fun i v -> dst.elems.(offset + i) <- Ops.coerce_typed ctx ty v)
        source_values;
      Undefined);

  def_method ctx typed_proto "subarray" 2 (fun ctx this args ->
      match this with
      | Obj ({ arr = Some ({ ty = Some ty; _ } as a); _ }) ->
          let n = a.alen in
          let rel i = if i < 0 then max 0 (n + i) else min i n in
          let from =
            match arg 0 args with
            | Undefined -> 0
            | v -> rel (Float.to_int (Ops.to_integer ctx v))
          in
          let upto =
            match arg 1 args with
            | Undefined -> n
            | v -> rel (Float.to_int (Ops.to_integer ctx v))
          in
          let t = make_typed ctx ty (max 0 (upto - from)) in
          let dst = Option.get t.arr in
          for i = 0 to dst.alen - 1 do
            dst.elems.(i) <- a.elems.(from + i)
          done;
          Obj t
      | _ -> Ops.type_error ctx "subarray called on a non-typed-array");

  def_method ctx typed_proto "toString" 0 (fun ctx this _ ->
      match this with
      | Obj ({ arr = Some a; _ }) ->
          Str
            (String.concat ","
               (List.init a.alen (fun i -> Ops.to_string ctx a.elems.(i))))
      | _ -> Str "");

  def_method ctx typed_proto "join" 1 (fun ctx this args ->
      match this with
      | Obj ({ arr = Some a; _ }) ->
          let sep =
            match arg 0 args with Undefined -> "," | v -> Ops.to_string ctx v
          in
          Str
            (String.concat sep
               (List.init a.alen (fun i -> Ops.to_string ctx a.elems.(i))))
      | _ -> Str "")

let make_dataview ctx (len : int) : obj =
  let o = make_obj ~oclass:"DataView" ~proto:(proto_of ctx "DataView") () in
  o.dataview <- Some (Bytes.make (max 0 len) '\x00');
  o

let install_dataview ctx (dv_proto : obj) : unit =
  let this_dv ctx this =
    match this with
    | Obj ({ dataview = Some b; _ } as o) ->
        (* setters mutate the bytes in place; journal before handing them out *)
        barrier o;
        b
    | _ -> Ops.type_error ctx "DataView method called on a non-DataView"
  in
  let check_bounds ctx b i width =
    if i < 0 || i + width > Bytes.length b then
      if fire ctx Quirk.Q_dataview_no_bounds_check then false
      else Ops.range_error ctx "offset is outside the bounds of the DataView"
    else true
  in
  def_method ctx dv_proto "getUint8" 1 (fun ctx this args ->
      let b = this_dv ctx this in
      let i = Float.to_int (Ops.to_integer ctx (arg 0 args)) in
      if check_bounds ctx b i 1 then int_ (Char.code (Bytes.get b i)) else num 0.0);
  def_method ctx dv_proto "setUint8" 2 (fun ctx this args ->
      let b = this_dv ctx this in
      let i = Float.to_int (Ops.to_integer ctx (arg 0 args)) in
      let v = Float.to_int (Ops.to_integer ctx (arg 1 args)) land 0xff in
      if check_bounds ctx b i 1 then Bytes.set b i (Char.chr v);
      Undefined);
  def_method ctx dv_proto "getInt8" 1 (fun ctx this args ->
      let b = this_dv ctx this in
      let i = Float.to_int (Ops.to_integer ctx (arg 0 args)) in
      if check_bounds ctx b i 1 then begin
        let v = Char.code (Bytes.get b i) in
        int_ (if v >= 128 then v - 256 else v)
      end
      else num 0.0);
  def_method ctx dv_proto "getUint16" 1 (fun ctx this args ->
      let b = this_dv ctx this in
      let i = Float.to_int (Ops.to_integer ctx (arg 0 args)) in
      if check_bounds ctx b i 2 then
        int_ ((Char.code (Bytes.get b i) lsl 8) lor Char.code (Bytes.get b (i + 1)))
      else num 0.0);
  def_method ctx dv_proto "setUint16" 2 (fun ctx this args ->
      let b = this_dv ctx this in
      let i = Float.to_int (Ops.to_integer ctx (arg 0 args)) in
      let v = Float.to_int (Ops.to_integer ctx (arg 1 args)) land 0xffff in
      if check_bounds ctx b i 2 then begin
        Bytes.set b i (Char.chr (v lsr 8));
        Bytes.set b (i + 1) (Char.chr (v land 0xff))
      end;
      Undefined);
  def_method ctx dv_proto "getUint32" 1 (fun ctx this args ->
      let b = this_dv ctx this in
      let i = Float.to_int (Ops.to_integer ctx (arg 0 args)) in
      if check_bounds ctx b i 4 then begin
        let byte k = Char.code (Bytes.get b (i + k)) in
        num (Float.of_int ((byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3))
      end
      else num 0.0);
  def_method ctx dv_proto "setUint32" 2 (fun ctx this args ->
      let b = this_dv ctx this in
      let i = Float.to_int (Ops.to_integer ctx (arg 0 args)) in
      let v = Int64.to_int (Int64.logand (Int64.of_float (Ops.to_number ctx (arg 1 args))) 0xFFFFFFFFL) in
      if check_bounds ctx b i 4 then
        for k = 0 to 3 do
          Bytes.set b (i + k) (Char.chr ((v lsr ((3 - k) * 8)) land 0xff))
        done;
      Undefined)
