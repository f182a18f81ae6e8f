(* Realm construction: wires together all builtin modules into a fresh
   global object. Each test-case execution creates its own realm so that
   testbeds are perfectly isolated, like the paper's per-engine Docker
   containers. *)

open Value
open Builtins_util

let install (ctx : ctx) : unit =
  let g = ctx.global in

  (* --- bootstrap prototypes --- *)
  let object_proto = make_obj ~oclass:"Object" ~proto:Null () in
  let function_proto = make_obj ~oclass:"Function" ~proto:(Obj object_proto) () in
  function_proto.call <- Some (Native ("", 0, fun _ _ _ -> Undefined));
  let mk_proto name =
    let o = make_obj ~oclass:name ~proto:(Obj object_proto) () in
    ctx.protos <- (name, o) :: ctx.protos;
    o
  in
  ctx.protos <- [ ("Object", object_proto); ("Function", function_proto) ];
  let string_proto = mk_proto "String" in
  let number_proto = mk_proto "Number" in
  let boolean_proto = mk_proto "Boolean" in
  let array_proto = mk_proto "Array" in
  let regexp_proto = mk_proto "RegExp" in
  let error_proto = mk_proto "Error" in
  let typed_proto = mk_proto "TypedArray" in
  let dv_proto = mk_proto "DataView" in
  let date_proto = mk_proto "Date" in
  g.proto <- Obj object_proto;

  (* --- constructors --- *)
  let register_ctor name arity impl proto =
    let c = make_native ctx name arity impl in
    def_value c "prototype" ~writable:false ~configurable:false (Obj proto);
    set_own proto "constructor" (mkprop ~enumerable:false (Obj c));
    def_value g name (Obj c);
    c
  in

  let object_ctor =
    register_ctor "Object" 1
      (fun ctx _ args ->
        match arg 0 args with
        | Undefined | Null ->
            Obj (make_obj ~oclass:"Object" ~proto:(proto_of ctx "Object") ())
        | v -> Obj (Ops.to_object ctx v))
      object_proto
  in

  let _function_ctor =
    register_ctor "Function" 1
      (fun ctx _ _ ->
        Ops.type_error ctx "Function constructor is not supported in this engine model")
      function_proto
  in

  let _array_ctor =
    register_ctor "Array" 1
      (fun ctx _ args ->
        match args with
        | [ Num f ] ->
            if Float.is_integer f && f >= 0.0 && f <= 100_000_000.0 then begin
              burn ctx (Float.to_int f / 8);
              let o = Ops.make_array ctx [] in
              (match o.arr with
              | Some a ->
                  a.elems <- Array.make (min 1_000_000 (Float.to_int f)) Undefined;
                  a.alen <- Float.to_int f
              | None -> ());
              Obj o
            end
            else if Float.is_integer f && f >= 0.0 then
              Ops.range_error ctx "invalid array length"
            else Ops.range_error ctx "invalid array length"
        | args -> Obj (Ops.make_array ctx args))
      array_proto
  in
  (match Ops.get_obj ctx g "Array" with
  | Obj ac ->
      def_method ctx ac "isArray" 1 (fun _ _ args -> bool_ (Ops.is_array (arg 0 args)));
      def_method ctx ac "of" 1 (fun ctx _ args -> Obj (Ops.make_array ctx args));
      def_method ctx ac "from" 1 (fun ctx _ args ->
          match arg 0 args with
          | Obj ({ arr = Some a; _ }) ->
              Obj (Ops.make_array ctx (Array.to_list (Array.sub a.elems 0 a.alen)))
          | Str s ->
              Obj (Ops.make_array ctx
                     (List.init (String.length s) (fun i -> Str (String.make 1 s.[i]))))
          | _ -> Obj (Ops.make_array ctx []))
  | _ -> ());

  let string_ctor =
    register_ctor "String" 1
      (fun ctx this args ->
        let s =
          match args with [] -> "" | v :: _ -> Ops.to_string ctx v
        in
        (* called as a constructor we return a wrapper; the [construct]
           driver passes a fresh object as [this] *)
        match this with
        | Obj o when o.oclass = "Object" && o.props = [] && o.prim = None ->
            Obj
              (let w = Ops.to_object ctx (Str s) in
               w)
        | _ -> Str s)
      string_proto
  in
  def_method ctx string_ctor "fromCharCode" 1 (fun ctx _ args ->
      Str
        (String.concat ""
           (List.map
              (fun v ->
                String.make 1
                  (Char.chr (Float.to_int (Ops.to_uint32 ctx v) land 0xff)))
              args)));

  let number_ctor =
    register_ctor "Number" 1
      (fun ctx this args ->
        let f = match args with [] -> 0.0 | v :: _ -> Ops.to_number ctx v in
        match this with
        | Obj o when o.oclass = "Object" && o.props = [] && o.prim = None ->
            let w = make_obj ~oclass:"Number" ~proto:(proto_of ctx "Number") () in
            w.prim <- Some (Num f);
            Obj w
        | _ -> Num f)
      number_proto
  in

  let _bool_ctor =
    register_ctor "Boolean" 1
      (fun ctx this args ->
        let b = Ops.to_boolean (arg 0 args) in
        match this with
        | Obj o when o.oclass = "Object" && o.props = [] && o.prim = None ->
            let w = make_obj ~oclass:"Boolean" ~proto:(proto_of ctx "Boolean") () in
            w.prim <- Some (Bool b);
            Obj w
        | _ -> Bool b)
      boolean_proto
  in

  let _regexp_ctor =
    register_ctor "RegExp" 2
      (fun ctx _ args ->
        let pat =
          match arg 0 args with
          | Obj { regex = Some rd; _ } -> rd.rx_source
          | Undefined -> ""
          | v -> Ops.to_string ctx v
        in
        let flags =
          match arg 1 args with Undefined -> "" | v -> Ops.to_string ctx v
        in
        match Regex.compile pat flags with
        | prog ->
            let o = make_obj ~oclass:"RegExp" ~proto:(proto_of ctx "RegExp") () in
            o.regex <- Some { rx_source = pat; rx_flags = flags; rx_prog = prog };
            set_own o "lastIndex" (mkprop ~enumerable:false ~configurable:false (Num 0.0));
            set_own o "source" (mkprop ~writable:false ~enumerable:false (Str pat));
            set_own o "flags" (mkprop ~writable:false ~enumerable:false (Str flags));
            set_own o "global" (mkprop ~writable:false ~enumerable:false (Bool prog.Regex.flag_g));
            Obj o
        | exception Regex.Parse_error msg ->
            Ops.syntax_error ctx ("invalid regular expression: " ^ msg))
      regexp_proto
  in

  (* error constructors: Error + the five native subtypes *)
  let make_error_family () =
    let kinds = [ "Error"; "TypeError"; "RangeError"; "SyntaxError"; "ReferenceError"; "EvalError" ] in
    List.iter
      (fun kind ->
        let proto =
          if kind = "Error" then error_proto
          else begin
            let p = make_obj ~oclass:"Error" ~proto:(Obj error_proto) () in
            ctx.protos <- (kind, p) :: ctx.protos;
            p
          end
        in
        def_value proto "name" (Str kind);
        def_value proto "message" (Str "");
        let _ =
          register_ctor kind 1
            (fun ctx _ args ->
              (* resolve the prototype through the calling realm, never
                 through the installing one: builtin closures must stay
                 realm-agnostic (the invariant [Realm] relies on) *)
              let o = make_obj ~oclass:"Error" ~proto:(proto_of ctx kind) () in
              (match arg 0 args with
              | Undefined -> ()
              | v -> set_own o "message" (mkprop ~enumerable:false (Str (Ops.to_string ctx v))));
              set_own o "name" (mkprop ~enumerable:false (Str kind));
              Obj o)
            proto
        in
        ())
      kinds
  in
  make_error_family ();
  def_method ctx error_proto "toString" 0 (fun ctx this _ ->
      match this with
      | Obj o ->
          let name = Ops.to_string ctx (Ops.get_obj ctx o "name") in
          let msg = Ops.to_string ctx (Ops.get_obj ctx o "message") in
          Str (if msg = "" then name else name ^ ": " ^ msg)
      | _ -> Str "Error");

  (* typed arrays *)
  List.iter
    (fun ty ->
      let c = Builtins_typed.typed_ctor ctx ty in
      def_value c "prototype" ~writable:false ~configurable:false (Obj typed_proto);
      def_value c "BYTES_PER_ELEMENT" ~writable:false
        (int_
           (match ty with
           | U8 | U8C | I8 -> 1
           | U16 | I16 -> 2
           | U32 | I32 | F32 -> 4
           | F64 -> 8));
      def_value g (typed_kind_name ty) (Obj c))
    [ U8; U8C; I8; U16; I16; U32; I32; F32; F64 ];

  let _dv_ctor =
    register_ctor "DataView" 1
      (fun ctx _ args ->
        let len =
          match arg 0 args with
          | Num f -> Float.to_int f
          | Obj { dataview = Some b; _ } -> Bytes.length b
          | _ -> Float.to_int (Ops.to_integer ctx (arg 0 args))
        in
        if len < 0 || len > 100_000_000 then
          Ops.range_error ctx "invalid DataView length"
        else Obj (Builtins_typed.make_dataview ctx len))
      dv_proto
  in

  (* Date: deterministic stub (differential outputs must be stable) *)
  let fixed_epoch = 1593561600000.0 (* 2020-07-01T00:00:00Z *) in
  let date_ctor =
    register_ctor "Date" 0
      (fun ctx _ args ->
        let t =
          match args with [] -> fixed_epoch | v :: _ -> Ops.to_number ctx v
        in
        let o = make_obj ~oclass:"Date" ~proto:(proto_of ctx "Date") () in
        o.prim <- Some (Num t);
        Obj o)
      date_proto
  in
  def_method ctx date_ctor "now" 0 (fun _ _ _ -> num fixed_epoch);
  def_method ctx date_proto "getTime" 0 (fun ctx this _ ->
      match this with
      | Obj { prim = Some (Num t); _ } -> num t
      | _ -> Ops.type_error ctx "getTime called on a non-Date");
  def_method ctx date_proto "valueOf" 0 (fun ctx this _ ->
      match this with
      | Obj { prim = Some (Num t); _ } -> num t
      | _ -> Ops.type_error ctx "valueOf called on a non-Date");
  def_method ctx date_proto "toString" 0 (fun _ this _ ->
      match this with
      | Obj { prim = Some (Num t); _ } ->
          Str (Printf.sprintf "[Date %s]" (Ops.number_to_string t))
      | _ -> Str "[Date]");

  (* Math and JSON namespace objects *)
  let math = make_obj ~oclass:"Math" ~proto:(Obj object_proto) () in
  def_value g "Math" (Obj math);
  let json = make_obj ~oclass:"JSON" ~proto:(Obj object_proto) () in
  def_value g "JSON" (Obj json);

  (* --- Function.prototype --- *)
  def_method ctx function_proto "call" 1 (fun ctx this args ->
      match args with
      | [] -> ctx.call_hook ctx this Undefined []
      | this' :: rest -> ctx.call_hook ctx this this' rest);
  def_method ctx function_proto "apply" 2 (fun ctx this args ->
      let this' = arg 0 args in
      let rest =
        match arg 1 args with
        | Obj ({ arr = Some a; _ }) -> Array.to_list (Array.sub a.elems 0 a.alen)
        | Undefined | Null -> []
        | _ -> Ops.type_error ctx "second argument to apply must be an array"
      in
      ctx.call_hook ctx this this' rest);
  def_method ctx function_proto "bind" 1 (fun ctx this args ->
      let bound_this = arg 0 args in
      let bound_args = match args with [] -> [] | _ :: rest -> rest in
      let target = this in
      Obj
        (make_native ctx "bound" 0 (fun ctx _ call_args ->
             ctx.call_hook ctx target bound_this (bound_args @ call_args))));
  def_method ctx function_proto "toString" 0 (fun ctx this _ ->
      match this with
      | Obj { call = Some (Native (name, _, _)); _ } ->
          Str (Printf.sprintf "function %s() { [native code] }" name)
      | Obj { call = Some (Js_closure cl); _ } ->
          Str
            (Printf.sprintf "function %s(%s) { [source code] }" cl.cl_name
               (String.concat ", " cl.cl_params))
      | Obj { call = Some (Compiled co); _ } ->
          Str
            (Printf.sprintf "function %s(%s) { [source code] }" co.co_name
               (String.concat ", " co.co_params))
      | _ -> Ops.type_error ctx "Function.prototype.toString requires a function");

  (* --- Boolean.prototype --- *)
  def_method ctx boolean_proto "toString" 0 (fun ctx this _ ->
      match this with
      | Bool b -> Str (if b then "true" else "false")
      | Obj { prim = Some (Bool b); _ } -> Str (if b then "true" else "false")
      | _ -> Ops.type_error ctx "Boolean.prototype.toString requires a boolean");
  def_method ctx boolean_proto "valueOf" 0 (fun ctx this _ ->
      match this with
      | Bool _ -> this
      | Obj { prim = Some (Bool b); _ } -> Bool b
      | _ -> Ops.type_error ctx "Boolean.prototype.valueOf requires a boolean");

  (* --- per-type builtin modules --- *)
  Builtins_string.install ctx string_proto;
  Builtins_array.install ctx array_proto;
  Builtins_object.install ctx object_proto object_ctor;
  Builtins_number.install ctx number_proto number_ctor math;
  Builtins_json.install ctx json;
  Builtins_regexp.install ctx regexp_proto;
  Builtins_typed.install ctx typed_proto;
  Builtins_typed.install_dataview ctx dv_proto;
  (* %TypedArray%.prototype shares the array generics that operate through
     the common element storage *)
  List.iter
    (fun name ->
      match find_own array_proto name with
      | Some p -> set_own typed_proto name (mkprop ~enumerable:false p.v)
      | None -> ())
    [ "fill"; "indexOf"; "includes"; "forEach"; "map"; "slice"; "reverse"; "every"; "some" ];

  (* --- global values and functions --- *)
  def_value g "undefined" ~writable:false ~configurable:false Undefined;
  def_value g "NaN" ~writable:false ~configurable:false (num Float.nan);
  def_value g "Infinity" ~writable:false ~configurable:false (num Float.infinity);
  def_value g "globalThis" (Obj g);

  def_method ctx g "print" 1 (fun ctx _ args ->
      let parts = List.map (Ops.to_string ctx) args in
      Buffer.add_string ctx.out (String.concat " " parts);
      Buffer.add_char ctx.out '\n';
      Undefined);

  def_method ctx g "parseInt" 2 (fun ctx _ args ->
      num
        (Builtins_number.js_parse_int ctx
           (Ops.to_string ctx (arg 0 args))
           (arg 1 args)));
  def_method ctx g "parseFloat" 1 (fun ctx _ args ->
      num (Builtins_number.js_parse_float ctx (Ops.to_string ctx (arg 0 args))));
  def_method ctx g "isNaN" 1 (fun ctx _ args ->
      bool_ (Float.is_nan (Ops.to_number ctx (arg 0 args))));
  def_method ctx g "isFinite" 1 (fun ctx _ args ->
      bool_ (Float.is_finite (Ops.to_number ctx (arg 0 args))));

  def_method ctx g "eval" 1 (fun ctx _ args ->
      match arg 0 args with
      | Str src ->
          (* eval code executes in the global scope and may add or replace
             bindings there, invalidating a slot-compiled program's static
             resolution — bail out before any effect and let [Run] re-run
             the whole program tree-walked *)
          if ctx.slotted then raise Deopt_to_tree;
          let v = ctx.eval_hook ctx ctx.global_scope false src in
          (match v with
          | Undefined -> Undefined
          | _ when fire ctx Quirk.Q_eval_expr_returns_undefined -> Undefined
          | Str s when fire ctx Quirk.Q_eval_string_result_quoted ->
              Str ("\"" ^ s ^ "\"")
          | v -> v)
      | v -> v (* eval of a non-string returns it unchanged *))
