(* Object constructor, statics, and Object.prototype. The V8
   defineProperty-on-array-length bug (Listing 1) lives here. *)

open Value
open Builtins_util

let install ctx (object_proto : obj) (object_ctor : obj) : unit =
  (* --- Object.prototype --- *)
  def_method ctx object_proto "toString" 0 (fun _ this _ ->
      match this with
      | Undefined -> Str "[object Undefined]"
      | Null -> Str "[object Null]"
      | Obj o -> Str (Printf.sprintf "[object %s]"
                        (match o.oclass with
                         | "Array" -> "Array"
                         | "Function" -> "Function"
                         | "Error" -> "Error"
                         | "Arguments" -> "Arguments"
                         | "String" | "Number" | "Boolean" | "RegExp" | "Date" -> o.oclass
                         | _ -> "Object"))
      | v -> Str (Printf.sprintf "[object %s]" (String.capitalize_ascii (type_of v))));

  def_method ctx object_proto "valueOf" 0 (fun ctx this _ ->
      match this with
      | Obj { prim = Some p; _ } -> p
      | Obj _ -> this
      | v -> Obj (Ops.to_object ctx v));

  def_method ctx object_proto "hasOwnProperty" 1 (fun ctx this args ->
      let key = Ops.to_string ctx (arg 0 args) in
      match this with
      | Obj o ->
          if fire ctx Quirk.Q_hasownproperty_walks_proto then
            bool_ (Ops.has_property ctx o key)
          else bool_ (Ops.has_own ctx o key)
      | Str s ->
          bool_
            (key = "length"
            || (match array_index_of_key key with
               | Some i -> i < String.length s
               | None -> false))
      | _ -> bool_ false);

  def_method ctx object_proto "isPrototypeOf" 1 (fun _ this args ->
      match (this, arg 0 args) with
      | Obj p, Obj o ->
          let rec walk = function
            | Obj x -> x == p || walk x.proto
            | _ -> false
          in
          bool_ (walk o.proto)
      | _ -> bool_ false);

  def_method ctx object_proto "propertyIsEnumerable" 1 (fun ctx this args ->
      let key = Ops.to_string ctx (arg 0 args) in
      match this with
      | Obj o -> (
          match find_own o key with
          | Some p -> bool_ p.enumerable
          | None -> bool_ (match o.arr with
              | Some a -> (match array_index_of_key key with
                  | Some i -> i < a.alen
                  | None -> false)
              | None -> false))
      | _ -> bool_ false);

  (* --- Object statics --- *)
  let require_obj ctx v =
    match v with
    | Obj o -> o
    | _ -> Ops.type_error ctx "Object operation called on non-object"
  in

  def_method ctx object_ctor "keys" 1 (fun ctx _ args ->
      let o = require_obj ctx (arg 0 args) in
      let keys =
        if fire ctx Quirk.Q_keys_includes_nonenumerable then
          (match o.arr with
           | Some a -> List.init a.alen string_of_int
           | None -> [])
          @ own_keys o
        else Ops.enum_keys ctx o
      in
      Obj (Ops.make_array ctx (List.map str keys)));

  def_method ctx object_ctor "values" 1 (fun ctx _ args ->
      let o = require_obj ctx (arg 0 args) in
      let vals = List.map (fun k -> Ops.get_obj ctx o k) (Ops.enum_keys ctx o) in
      Obj (Ops.make_array ctx vals));

  def_method ctx object_ctor "entries" 1 (fun ctx _ args ->
      let o = require_obj ctx (arg 0 args) in
      let pairs =
        List.map
          (fun k -> Obj (Ops.make_array ctx [ Str k; Ops.get_obj ctx o k ]))
          (Ops.enum_keys ctx o)
      in
      Obj (Ops.make_array ctx pairs));

  def_method ctx object_ctor "fromEntries" 1 (fun ctx _ args ->
      match arg 0 args with
      | Obj ({ arr = Some a; _ }) ->
          let o = make_obj ~oclass:"Object" ~proto:(proto_of ctx "Object") () in
          for i = 0 to a.alen - 1 do
            match a.elems.(i) with
            | Obj ({ arr = Some pair; _ }) when pair.alen >= 2 ->
                let k = Ops.to_string ctx pair.elems.(0) in
                set_own o k (mkprop pair.elems.(1))
            | _ -> Ops.type_error ctx "iterable entry is not a key/value pair"
          done;
          Obj o
      | _ -> Ops.type_error ctx "fromEntries requires an array of entries");

  def_method ctx object_ctor "getOwnPropertyNames" 1 (fun ctx _ args ->
      let o = require_obj ctx (arg 0 args) in
      let elems =
        match o.arr with Some a -> List.init a.alen string_of_int | None -> []
      in
      let extra = match o.arr with Some _ -> [ "length" ] | None -> [] in
      let keys = elems @ own_keys o @ extra in
      let keys =
        if fire ctx Quirk.Q_getownpropertynames_sorted then
          List.sort String.compare keys
        else keys
      in
      Obj (Ops.make_array ctx (List.map str keys)));

  def_method ctx object_ctor "getPrototypeOf" 1 (fun ctx _ args ->
      match arg 0 args with
      | Obj o -> o.proto
      | v -> (Ops.to_object ctx v).proto);

  def_method ctx object_ctor "create" 2 (fun ctx _ args ->
      let proto =
        match arg 0 args with
        | Null -> Null
        | Obj _ as p -> p
        | _ -> Ops.type_error ctx "Object prototype may only be an Object or null"
      in
      let o = make_obj ~oclass:"Object" ~proto () in
      Obj o);

  def_method ctx object_ctor "assign" 2 (fun ctx _ args ->
      match args with
      | [] -> Ops.type_error ctx "cannot convert undefined to object"
      | target :: sources ->
          let t = require_obj ctx target in
          List.iter
            (fun src ->
              match src with
              | Obj s ->
                  List.iter
                    (fun k ->
                      let skip =
                        array_index_of_key k <> None
                        && fire ctx Quirk.Q_assign_skips_numeric_keys
                      in
                      if not skip then
                        Ops.set_obj ctx ~strict:false t k (Ops.get_obj ctx s k))
                    (Ops.enum_keys ctx s)
              | _ -> ())
            sources;
          target);

  (* defineProperty: the central conformance surface for Listing 1 *)
  def_method ctx object_ctor "defineProperty" 3 (fun ctx _ args ->
      let o = require_obj ctx (arg 0 args) in
      let key = Ops.to_string ctx (arg 1 args) in
      let desc =
        match arg 2 args with
        | Obj d -> d
        | _ -> Ops.type_error ctx "property descriptor must be an object"
      in
      let has k = Ops.has_own ctx desc k in
      let get k = Ops.get_obj ctx desc k in
      (* mutates prop records in place: journal a pre-image *)
      barrier o;
      let dflt = fire ctx Quirk.Q_defineproperty_defaults_writable in
      (* array length redefinition (Listing 1): length is non-configurable *)
      (match (o.arr, key) with
      | Some a, "length" when a.ty = None ->
          let wants_configurable =
            has "configurable" && Ops.to_boolean (get "configurable")
          in
          if wants_configurable then begin
            if not (fire ctx Quirk.Q_defineproperty_array_length_no_typeerror) then
              Ops.type_error ctx "cannot redefine non-configurable property 'length'"
          end;
          (if has "value" then begin
             let n = Float.to_int (Ops.to_uint32 ctx (get "value")) in
             if n < a.alen then begin
               if n < Array.length a.elems then
                 Array.fill a.elems n (Array.length a.elems - n) Undefined;
               a.alen <- n
             end
             else a.alen <- n
           end);
          if has "writable" && not (Ops.to_boolean (get "writable")) then
            a.length_writable <- false
      | Some a, _ when array_index_of_key key <> None ->
          let i = Option.get (array_index_of_key key) in
          if has "value" then Ops.array_store ctx o a i (get "value")
      | _ ->
          let existing = find_own o key in
          (match existing with
          | Some p when not p.configurable ->
              (* a non-configurable property may only be weakened: writable
                 may go true -> false, the value may change while writable;
                 everything else is a TypeError *)
              let reject () =
                Ops.type_error ctx
                  (Printf.sprintf "cannot redefine property '%s'" key)
              in
              if has "configurable" && Ops.to_boolean (get "configurable") then
                reject ();
              if has "enumerable" && Ops.to_boolean (get "enumerable") <> p.enumerable
              then reject ();
              (if has "writable" then
                 let w = Ops.to_boolean (get "writable") in
                 if w && not p.writable then reject () else p.writable <- w);
              if has "value" then
                if p.writable then p.v <- get "value"
                else if not (Ops.strict_equals (get "value") p.v) then reject ()
          | Some p ->
              (* configurable: update only the supplied fields *)
              if has "value" then p.v <- get "value";
              if has "writable" then p.writable <- Ops.to_boolean (get "writable");
              if has "enumerable" then p.enumerable <- Ops.to_boolean (get "enumerable");
              if has "configurable" then
                p.configurable <- Ops.to_boolean (get "configurable");
              if has "get" then p.getter <- Some (get "get")
          | None ->
              let bool_attr k =
                if has k then Ops.to_boolean (get k) else dflt
              in
              let p =
                mkprop
                  ~writable:(bool_attr "writable")
                  ~enumerable:(bool_attr "enumerable")
                  ~configurable:(bool_attr "configurable")
                  (if has "value" then get "value" else Undefined)
              in
              (if has "get" then p.getter <- Some (get "get"));
              set_own o key p));
      arg 0 args);

  def_method ctx object_ctor "getOwnPropertyDescriptor" 2 (fun ctx _ args ->
      let o = require_obj ctx (arg 0 args) in
      let key = Ops.to_string ctx (arg 1 args) in
      match find_own o key with
      | None -> (
          match (o.arr, key) with
          | Some a, "length" ->
              let d = make_obj ~oclass:"Object" ~proto:(proto_of ctx "Object") () in
              def_value d "value" ~enumerable:true (int_ a.alen);
              def_value d "writable" ~enumerable:true (bool_ a.length_writable);
              def_value d "enumerable" ~enumerable:true (bool_ false);
              def_value d "configurable" ~enumerable:true (bool_ false);
              Obj d
          | _ -> Undefined)
      | Some p ->
          let d = make_obj ~oclass:"Object" ~proto:(proto_of ctx "Object") () in
          def_value d "value" ~enumerable:true p.v;
          def_value d "writable" ~enumerable:true (bool_ p.writable);
          def_value d "enumerable" ~enumerable:true (bool_ p.enumerable);
          def_value d "configurable" ~enumerable:true (bool_ p.configurable);
          Obj d);

  let freeze_obj ctx o ~seal_only =
    (* Rhino crash (Listing 11): sealing a String wrapper object *)
    if o.oclass = "String" && o.prim <> None
       && fire ctx Quirk.Q_seal_string_object_crash
    then raise (Engine_crash "Object.seal on String wrapper: invalid slot access");
    barrier o;
    o.extensible <- false;
    List.iter
      (fun (_, p) ->
        p.configurable <- false;
        if not seal_only then p.writable <- false)
      o.props;
    (match o.arr with
    | Some a when a.ty = None ->
        a.length_writable <- false;
        if (not seal_only) && not (fire ctx Quirk.Q_freeze_array_elements_writable)
        then a.elem_attrs <- Elems_frozen
        else if a.elem_attrs = Elems_open then a.elem_attrs <- Elems_sealed
    | _ -> ())
  in
  (* the array part of isFrozen / isSealed: [length] is a non-configurable
     own property of every ordinary array, and typed-array elements stay
     writable and configurable *)
  let elems_frozen (o : obj) =
    match o.arr with
    | None -> true
    | Some a when a.ty = None ->
        (not a.length_writable) && (a.alen = 0 || a.elem_attrs = Elems_frozen)
    | Some a -> a.alen = 0
  in
  let elems_sealed (o : obj) =
    match o.arr with
    | None -> true
    | Some a when a.ty = None -> a.alen = 0 || a.elem_attrs <> Elems_open
    | Some a -> a.alen = 0
  in

  def_method ctx object_ctor "freeze" 1 (fun ctx _ args ->
      (match arg 0 args with
      | Obj o -> freeze_obj ctx o ~seal_only:false
      | _ -> ());
      arg 0 args);

  def_method ctx object_ctor "seal" 1 (fun ctx _ args ->
      (match arg 0 args with
      | Obj o -> freeze_obj ctx o ~seal_only:true
      | _ -> ());
      arg 0 args);

  def_method ctx object_ctor "isFrozen" 1 (fun _ _ args ->
      match arg 0 args with
      | Obj o ->
          bool_
            ((not o.extensible)
            && List.for_all (fun (_, p) -> (not p.configurable) && not p.writable) o.props
            && elems_frozen o)
      | _ -> bool_ true);

  def_method ctx object_ctor "isSealed" 1 (fun _ _ args ->
      match arg 0 args with
      | Obj o ->
          bool_
            ((not o.extensible)
            && List.for_all (fun (_, p) -> not p.configurable) o.props
            && elems_sealed o)
      | _ -> bool_ true);

  def_method ctx object_ctor "isExtensible" 1 (fun _ _ args ->
      match arg 0 args with Obj o -> bool_ o.extensible | _ -> bool_ false);

  def_method ctx object_ctor "preventExtensions" 1 (fun _ _ args ->
      (match arg 0 args with
      | Obj o ->
          barrier o;
          o.extensible <- false
      | _ -> ());
      arg 0 args)
