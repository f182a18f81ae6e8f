(* Helpers shared by all builtin modules. *)

open Value

let arg n args = match List.nth_opt args n with Some v -> v | None -> Undefined

let nargs = List.length

(* Define a native method [name] on object [o]. Builtin methods are
   writable+configurable but not enumerable, per ECMA-262. *)
let def_method ctx (o : obj) (name : string) (arity : int)
    (impl : ctx -> value -> value list -> value) : unit =
  let f = make_obj ~oclass:"Function" ~proto:(proto_of ctx "Function") () in
  f.call <- Some (Native (name, arity, impl));
  set_own f "length"
    (mkprop ~writable:false ~enumerable:false (Num (Float.of_int arity)));
  set_own f "name" (mkprop ~writable:false ~enumerable:false (Str name));
  set_own o name (mkprop ~enumerable:false (Obj f))

(* A bare native function value. *)
let make_native ctx (name : string) (arity : int)
    (impl : ctx -> value -> value list -> value) : obj =
  let f = make_obj ~oclass:"Function" ~proto:(proto_of ctx "Function") () in
  f.call <- Some (Native (name, arity, impl));
  set_own f "length"
    (mkprop ~writable:false ~enumerable:false (Num (Float.of_int arity)));
  set_own f "name" (mkprop ~writable:false ~enumerable:false (Str name));
  f

let def_value (o : obj) (name : string) ?(writable = true) ?(enumerable = false)
    ?(configurable = true) (v : value) : unit =
  set_own o name (mkprop ~writable ~enumerable ~configurable v)

(* Coerce [this] for String.prototype methods (CheckObjectCoercible +
   ToString). *)
let this_string ctx (this : value) : string =
  match this with
  | Undefined | Null ->
      Ops.type_error ctx "String.prototype method called on null or undefined"
  | v -> Ops.to_string ctx v

let this_number ctx (this : value) : float =
  match this with
  | Num f -> f
  | Obj { prim = Some (Num f); _ } -> f
  | _ -> Ops.type_error ctx "Number.prototype method called on a non-number"

let str v = Str v
let num f = Num f
let int_ i = Num (Float.of_int i)
let bool_ b = Bool b
