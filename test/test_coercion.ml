(* The ECMA-262 abstract-operation matrix: ToString / ToNumber / ToBoolean
   / ToPrimitive / equality across every value-kind pairing. Conformance
   bugs live in coercions, so the reference engine must be right here. *)

open Helpers

let to_string_matrix =
  [
    ("undefined", "\"\" + undefined", "undefined");
    ("null", "\"\" + null", "null");
    ("true", "\"\" + true", "true");
    ("false", "\"\" + false", "false");
    ("int", "\"\" + 42", "42");
    ("negative", "\"\" + -42", "-42");
    ("float", "\"\" + 1.5", "1.5");
    ("trailing zero dropped", "\"\" + 2.0", "2");
    ("nan", "\"\" + NaN", "NaN");
    ("infinity", "\"\" + Infinity", "Infinity");
    ("exponent large", "\"\" + 1e25", "1e+25");
    ("exponent small", "\"\" + 1e-7", "1e-7");
    ("max safe int", "\"\" + 9007199254740991", "9007199254740991");
    ("empty array", "\"\" + []", "");
    ("one elem array", "\"\" + [7]", "7");
    ("nested array", "\"\" + [1, [2, 3]]", "1,2,3");
    ("array with null", "\"\" + [null]", "");
    ("object", "\"\" + {}", "[object Object]");
    ("function-ish", "typeof (\"\" + print)", "string");
  ]

let to_number_matrix =
  [
    ("undefined", "+undefined", "NaN");
    ("null", "+null", "0");
    ("true", "+true", "1");
    ("false", "+false", "0");
    ("numeric string", "+\"42\"", "42");
    ("float string", "+\"1.5\"", "1.5");
    ("whitespace string", "+\"  7  \"", "7");
    ("empty string", "+\"\"", "0");
    ("blank string", "+\"   \"", "0");
    ("hex string", "+\"0x10\"", "16");
    ("garbage string", "+\"4x\"", "NaN");
    ("exp string", "+\"2e3\"", "2000");
    ("plus-prefixed", "+\"+5\"", "5");
    ("minus-prefixed", "+\"-5\"", "-5");
    ("infinity string", "+\"Infinity\"", "Infinity");
    ("double dot", "+\"1.2.3\"", "NaN");
    ("empty array", "+[]", "0");
    ("single numeric array", "+[9]", "9");
    ("multi array", "+[1, 2]", "NaN");
    ("object", "typeof +{}", "number");
    ("object is nan", "isNaN(+{})", "true");
  ]

let to_boolean_matrix =
  [
    ("undefined", "!!undefined", "false");
    ("null", "!!null", "false");
    ("zero", "!!0", "false");
    ("neg zero", "!!-0", "false");
    ("nan", "!!NaN", "false");
    ("empty string", "!!\"\"", "false");
    ("zero string truthy", "!!\"0\"", "true");
    ("false string truthy", "!!\"false\"", "true");
    ("empty array truthy", "!![]", "true");
    ("empty object truthy", "!!{}", "true");
    ("one", "!!1", "true");
    ("negative", "!!-1", "true");
  ]

let equality_matrix =
  [
    ("1 == true", "1 == true", "true");
    ("2 == true", "2 == true", "false");
    ("0 == false", "0 == false", "true");
    ("'' == false", "\"\" == false", "true");
    ("'' == 0", "\"\" == 0", "true");
    ("'0' == 0", "\"0\" == 0", "true");
    ("'' == '0'", "\"\" == \"0\"", "false");
    ("null == false", "null == false", "false");
    ("undefined == false", "undefined == false", "false");
    ("null == null", "null == null", "true");
    ("[] == false", "[] == false", "true");
    ("[] == ''", "[] == \"\"", "true");
    ("[0] == false", "[0] == false", "true");
    ("[1] == 1", "[1] == 1", "true");
    ("nan self", "NaN == NaN", "false");
    ("obj to prim", "({toString: function() { return \"5\"; }}) == 5", "true");
    ("valueOf preferred", "({valueOf: function() { return 7; }, toString: function() { return \"9\"; }}) == 7", "true");
  ]

let to_primitive_tests () =
  check_out "valueOf drives arithmetic"
    {|var o = {valueOf: function() { return 6; }}; print(o * 7);|} "42";
  check_out "toString drives string context"
    {|var o = {toString: function() { return "str"; }}; print("<" + o + ">");|}
    "<str>";
  check_out "valueOf preferred for +"
    {|var o = {valueOf: function() { return 1; }, toString: function() { return "t"; }};
print(o + 0);|}
    "1";
  check_out "object valueOf returning object falls back"
    {|var o = {valueOf: function() { return {}; }, toString: function() { return "fb"; }};
print(o + "");|}
    "fb";
  check_error "no primitive at all"
    {|var o = Object.create(null); print(o + 1);|} "TypeError";
  check_out "Date-like prefers valueOf for arithmetic"
    {|print(new Date(100) - new Date(40));|} "60"

let relational_coercion () =
  check_out "string vs number compares numerically" {|print("5" < 6);|} "true";
  check_out "both strings compare lexically" {|print("5" < "06");|} "false";
  check_out "undefined comparisons are false"
    {|print(undefined < 1); print(undefined >= 1);|} "false\nfalse";
  check_out "null behaves as zero" {|print(null < 1); print(null >= 0);|} "true\ntrue";
  check_out "array compares via join" {|print([2] < [10]);|} "false"

let int32_coercions () =
  check_out "to int32 wraps" {|print((4294967296 + 5) | 0);|} "5";
  check_out "nan to int32 is 0" {|print(NaN | 0);|} "0";
  check_out "infinity to int32 is 0" {|print(Infinity | 0);|} "0";
  check_out "fraction truncates" {|print(3.9 | 0); print(-3.9 | 0);|} "3\n-3";
  check_out "uint32 via ushr" {|print(-4 >>> 0);|} "4294967292"

let mk (name, expr, expected) = case name (fun () -> check_expr name expr expected)

(* Number::toString's layout (ECMA-262 7.1.12.1): fixed notation for
   values down to 1e-6, shortest digits padded with zeros up to 21
   digits. *)
let number_layout_matrix =
  [
    ("fixed down to 1e-6", "\"\" + 0.000001", "0.000001");
    ("five leading zeros", "\"\" + 0.00001", "0.00001");
    ("five leading zeros, two digits", "\"\" + 1.5e-5", "0.000015");
    ("shortest digits of 2**60", "\"\" + Math.pow(2, 60)", "1152921504606847000");
    ("shortest digits below 1e21", "\"\" + 123456789012345680000", "123456789012345680000");
  ]

let suite =
  List.map mk to_string_matrix
  @ List.map mk to_number_matrix
  @ List.map mk to_boolean_matrix
  @ List.map mk equality_matrix
  @ [
      case "ToPrimitive protocol" to_primitive_tests;
      case "relational coercion" relational_coercion;
      case "int32/uint32" int32_coercions;
    ]
  @ List.map mk number_layout_matrix
