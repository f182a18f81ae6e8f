(* Array constructor and Array.prototype. *)

open Value
open Builtins_util

let this_array ctx (this : value) : obj * arr =
  match this with
  | Obj ({ arr = Some a; _ } as o) when a.ty = None -> (o, a)
  | Obj ({ arr = Some a; _ } as o) -> (o, a) (* typed arrays share generics *)
  | _ -> Ops.type_error ctx "Array.prototype method called on a non-array"

let elements (a : arr) : value list =
  Array.to_list (Array.sub a.elems 0 (min a.alen (Array.length a.elems)))

let replace_elements ctx (o : obj) (a : arr) (vs : value list) : unit =
  ignore ctx;
  barrier o;
  a.elems <- Array.of_list vs;
  a.alen <- List.length vs;
  a.min_written <- (if vs = [] then max_int else 0)

let rel_index len i = if i < 0 then max 0 (len + i) else min i len

let install ctx (array_proto : obj) : unit =
  let to_int ctx v = Float.to_int (max (-1e9) (min 1e9 (Ops.to_integer ctx v))) in

  def_method ctx array_proto "push" 1 (fun ctx this args ->
      let o, a = this_array ctx this in
      List.iter (fun v -> Ops.array_store ctx o a a.alen v) args;
      int_ a.alen);

  def_method ctx array_proto "pop" 0 (fun ctx this _ ->
      let o, a = this_array ctx this in
      if a.alen = 0 then Undefined
      else begin
        barrier o;
        let v = a.elems.(a.alen - 1) in
        a.elems.(a.alen - 1) <- Undefined;
        a.alen <- a.alen - 1;
        v
      end);

  def_method ctx array_proto "shift" 0 (fun ctx this _ ->
      let o, a = this_array ctx this in
      match elements a with
      | [] -> Undefined
      | hd :: tl ->
          replace_elements ctx o a tl;
          hd);

  def_method ctx array_proto "unshift" 1 (fun ctx this args ->
      let o, a = this_array ctx this in
      replace_elements ctx o a (args @ elements a);
      if fire ctx Quirk.Q_unshift_returns_undefined then Undefined
      else int_ a.alen);

  def_method ctx array_proto "slice" 2 (fun ctx this args ->
      let _, a = this_array ctx this in
      let n = a.alen in
      let from =
        match arg 0 args with Undefined -> 0 | v -> rel_index n (to_int ctx v)
      in
      let upto =
        match arg 1 args with Undefined -> n | v -> rel_index n (to_int ctx v)
      in
      let vs = elements a in
      let sliced = List.filteri (fun i _ -> i >= from && i < upto) vs in
      Obj (Ops.make_array ctx sliced));

  def_method ctx array_proto "splice" 2 (fun ctx this args ->
      let o, a = this_array ctx this in
      let n = a.alen in
      let start = rel_index n (to_int ctx (arg 0 args)) in
      let delcount =
        match arg 1 args with
        | Undefined -> n - start
        | v ->
            let d = to_int ctx v in
            if d < 0 then
              (* standard clamps to 0; the quirk deletes |d| elements *)
              if fire ctx Quirk.Q_splice_negative_delcount_deletes then -d else 0
            else min d (n - start)
      in
      let delcount = min delcount (n - start) in
      let inserts = match args with _ :: _ :: ins -> ins | _ -> [] in
      let vs = elements a in
      let before = List.filteri (fun i _ -> i < start) vs in
      let deleted = List.filteri (fun i _ -> i >= start && i < start + delcount) vs in
      let after = List.filteri (fun i _ -> i >= start + delcount) vs in
      replace_elements ctx o a (before @ inserts @ after);
      Obj (Ops.make_array ctx deleted));

  def_method ctx array_proto "indexOf" 1 (fun ctx this args ->
      let _, a = this_array ctx this in
      let target = arg 0 args in
      let from = rel_index a.alen (to_int ctx (arg 1 args)) in
      let nan_target =
        (match target with Num f -> Float.is_nan f | _ -> false)
        && fire ctx Quirk.Q_array_indexof_nan_found
      in
      let found = ref (-1) in
      (try
         List.iteri
           (fun i v ->
             if i >= from && !found < 0 then
               if Ops.strict_equals v target
                  || (nan_target && match v with Num f -> Float.is_nan f | _ -> false)
               then begin
                 found := i;
                 raise Exit
               end)
           (elements a)
       with Exit -> ());
      int_ !found);

  def_method ctx array_proto "lastIndexOf" 1 (fun ctx this args ->
      let _, a = this_array ctx this in
      let target = arg 0 args in
      let found = ref (-1) in
      List.iteri
        (fun i v -> if Ops.strict_equals v target then found := i)
        (elements a);
      int_ !found);

  def_method ctx array_proto "includes" 1 (fun ctx this args ->
      let _, a = this_array ctx this in
      let target = arg 0 args in
      let eq =
        if fire ctx Quirk.Q_array_includes_strict_nan then Ops.strict_equals
        else Ops.same_value_zero
      in
      bool_ (List.exists (fun v -> eq v target) (elements a)));

  def_method ctx array_proto "join" 1 (fun ctx this args ->
      let _, a = this_array ctx this in
      let sep =
        match arg 0 args with Undefined -> "," | v -> Ops.to_string ctx v
      in
      let piece v =
        match v with
        | Undefined | Null ->
            if fire ctx Quirk.Q_join_prints_null_undefined then
              Ops.to_string ctx v
            else ""
        | v -> Ops.to_string ctx v
      in
      (* straight into a buffer: a generated [v[65535] = x; print(v)]
         joins 64k pieces, and the two intermediate lists of the list
         form outlived the minor heap. Only an object element can run
         user code (its [toString]) that stores into the array, so the
         elements are snapshotted only when one is present. *)
      let n = min a.alen (Array.length a.elems) in
      let elems =
        let rec has_obj i =
          i < n && (match a.elems.(i) with Obj _ -> true | _ -> has_obj (i + 1))
        in
        if has_obj 0 then Array.sub a.elems 0 n else a.elems
      in
      let b = Buffer.create 64 in
      for i = 0 to n - 1 do
        if i > 0 then Buffer.add_string b sep;
        Buffer.add_string b (piece elems.(i))
      done;
      Str (Buffer.contents b));

  def_method ctx array_proto "toString" 0 (fun ctx this _ ->
      match this with
      | Obj ({ arr = Some _; _ }) ->
          let join = Ops.get ctx this "join" in
          ctx.call_hook ctx join this []
      | _ -> Str "[object Object]");

  def_method ctx array_proto "concat" 1 (fun ctx this args ->
      let _, a = this_array ctx this in
      let flat_one v =
        match v with
        | Obj ({ arr = Some b; _ }) when b.ty = None -> elements b
        | v -> [ v ]
      in
      Obj (Ops.make_array ctx (elements a @ List.concat_map flat_one args)));

  def_method ctx array_proto "reverse" 0 (fun ctx this _ ->
      let o, a = this_array ctx this in
      replace_elements ctx o a (List.rev (elements a));
      this);

  def_method ctx array_proto "sort" 1 (fun ctx this args ->
      let o, a = this_array ctx this in
      burn ctx (a.alen + 1);
      let cmp =
        match arg 0 args with
        | Obj { call = Some _; _ } as fn ->
            fun x y ->
              let r = Ops.to_number ctx (ctx.call_hook ctx fn Undefined [ x; y ]) in
              if Float.is_nan r || r = 0.0 then 0 else if r < 0.0 then -1 else 1
        | _ ->
            if fire ctx Quirk.Q_array_sort_numeric_default then fun x y ->
              compare (Ops.to_number ctx x) (Ops.to_number ctx y)
            else fun x y ->
              String.compare (Ops.to_string ctx x) (Ops.to_string ctx y)
      in
      (* undefined sorts last regardless of comparator *)
      let undef, defined = List.partition (fun v -> v = Undefined) (elements a) in
      let sorted = List.stable_sort cmp defined in
      replace_elements ctx o a (sorted @ undef);
      this);

  let iter_method name impl = def_method ctx array_proto name 1 impl in

  iter_method "forEach" (fun ctx this args ->
      let _, a = this_array ctx this in
      let fn = arg 0 args in
      List.iteri
        (fun i v -> ignore (ctx.call_hook ctx fn (arg 1 args) [ v; int_ i; this ]))
        (elements a);
      Undefined);

  iter_method "map" (fun ctx this args ->
      let _, a = this_array ctx this in
      let fn = arg 0 args in
      Obj
        (Ops.make_array ctx
           (List.mapi
              (fun i v -> ctx.call_hook ctx fn (arg 1 args) [ v; int_ i; this ])
              (elements a))));

  iter_method "filter" (fun ctx this args ->
      let _, a = this_array ctx this in
      let fn = arg 0 args in
      Obj
        (Ops.make_array ctx
           (List.filteri
              (fun i _ ->
                Ops.to_boolean
                  (ctx.call_hook ctx fn (arg 1 args)
                     [ List.nth (elements a) i; int_ i; this ]))
              (elements a))));

  iter_method "every" (fun ctx this args ->
      let _, a = this_array ctx this in
      let fn = arg 0 args in
      let i = ref (-1) in
      bool_
        (List.for_all
           (fun v ->
             incr i;
             Ops.to_boolean (ctx.call_hook ctx fn Undefined [ v; int_ !i; this ]))
           (elements a)));

  iter_method "some" (fun ctx this args ->
      let _, a = this_array ctx this in
      let fn = arg 0 args in
      let i = ref (-1) in
      bool_
        (List.exists
           (fun v ->
             incr i;
             Ops.to_boolean (ctx.call_hook ctx fn Undefined [ v; int_ !i; this ]))
           (elements a)));

  iter_method "find" (fun ctx this args ->
      let _, a = this_array ctx this in
      let fn = arg 0 args in
      let i = ref (-1) in
      match
        List.find_opt
          (fun v ->
            incr i;
            Ops.to_boolean (ctx.call_hook ctx fn Undefined [ v; int_ !i; this ]))
          (elements a)
      with
      | Some v -> v
      | None -> Undefined);

  iter_method "findIndex" (fun ctx this args ->
      let _, a = this_array ctx this in
      let fn = arg 0 args in
      let found = ref (-1) in
      (try
         List.iteri
           (fun i v ->
             if Ops.to_boolean (ctx.call_hook ctx fn Undefined [ v; int_ i; this ])
             then begin
               found := i;
               raise Exit
             end)
           (elements a)
       with Exit -> ());
      int_ !found);

  def_method ctx array_proto "reduce" 2 (fun ctx this args ->
      let _, a = this_array ctx this in
      let fn = arg 0 args in
      let vs = elements a in
      match (vs, nargs args >= 2) with
      | [], false ->
          if fire ctx Quirk.Q_reduce_empty_returns_undefined then Undefined
          else Ops.type_error ctx "reduce of empty array with no initial value"
      | vs, true ->
          let acc = ref (arg 1 args) in
          List.iteri
            (fun i v -> acc := ctx.call_hook ctx fn Undefined [ !acc; v; int_ i; this ])
            vs;
          !acc
      | hd :: tl, false ->
          let acc = ref hd in
          List.iteri
            (fun i v ->
              acc := ctx.call_hook ctx fn Undefined [ !acc; v; int_ (i + 1); this ])
            tl;
          !acc);

  def_method ctx array_proto "fill" 1 (fun ctx this args ->
      let o, a = this_array ctx this in
      let v = arg 0 args in
      (* the fill-no-coerce quirk stores the raw value, bypassing the
         element-type conversion that the store path would apply *)
      let raw_store =
        a.ty <> None && fire ctx Quirk.Q_typedarray_fill_no_coerce
      in
      let n = a.alen in
      let from =
        match arg 1 args with Undefined -> 0 | x -> rel_index n (to_int ctx x)
      in
      let upto =
        match arg 2 args with Undefined -> n | x -> rel_index n (to_int ctx x)
      in
      let upto =
        if upto > from && fire ctx Quirk.Q_array_fill_skips_last then upto - 1
        else upto
      in
      for i = from to upto - 1 do
        if raw_store then begin
          barrier o;
          a.elems.(i) <- v
        end
        else Ops.array_store ctx o a i v
      done;
      this);

  def_method ctx array_proto "at" 1 (fun ctx this args ->
      let _, a = this_array ctx this in
      let i = to_int ctx (arg 0 args) in
      let i = if i < 0 then a.alen + i else i in
      if i >= 0 && i < a.alen then a.elems.(i) else Undefined);

  def_method ctx array_proto "copyWithin" 2 (fun ctx this args ->
      let o, a = this_array ctx this in
      barrier o;
      let n = a.alen in
      let target = rel_index n (to_int ctx (arg 0 args)) in
      let from =
        match arg 1 args with Undefined -> 0 | v -> rel_index n (to_int ctx v)
      in
      let upto =
        match arg 2 args with Undefined -> n | v -> rel_index n (to_int ctx v)
      in
      let count = min (upto - from) (n - target) in
      if count > 0 then begin
        let snapshot = Array.sub a.elems from count in
        Array.blit snapshot 0 a.elems target count
      end;
      this);

  def_method ctx array_proto "keys" 0 (fun ctx this _ ->
      let _, a = this_array ctx this in
      (* a real iterator protocol is out of scope; return the index array,
         which covers the for-of use the corpus makes of keys() *)
      Obj (Ops.make_array ctx (List.init a.alen (fun i -> int_ i))));

  def_method ctx array_proto "flat" 0 (fun ctx this args ->
      let _, a = this_array ctx this in
      let depth =
        match arg 0 args with
        | Undefined -> 1
        | v ->
            if fire ctx Quirk.Q_flat_ignores_depth then max_int
            else to_int ctx v
      in
      let rec flatten d vs =
        List.concat_map
          (fun v ->
            match v with
            | Obj ({ arr = Some b; _ }) when b.ty = None && d > 0 ->
                flatten (d - 1) (elements b)
            | v -> [ v ])
          vs
      in
      Obj (Ops.make_array ctx (flatten depth (elements a))))
