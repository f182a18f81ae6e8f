(** The simulated engine/version registry (paper Table 1: 10 engines, 51
    engine-version configurations).

    A {!config} is one engine version: the set of quirks (bugs) present in
    that build plus a front-end profile (the ECMAScript edition the version
    supports). Quirks carry version ranges — introduced by one release and
    possibly fixed by a later one — which drives Table 3's earliest-version
    attribution. *)

type engine =
  | V8
  | ChakraCore
  | JSC
  | SpiderMonkey
  | Rhino
  | Nashorn
  | Hermes
  | JerryScript
  | QuickJS
  | Graaljs

val engine_name : engine -> string
val all_engines : engine list

type es_edition = ES5 | ES2015 | ES2019 | ES2020

val es_to_string : es_edition -> string

(** A comparable, hashable projection of a config's {e effective} front
    end: the base option profile (ES5 vs standard) plus the three
    parser-level quirks the interpreter folds into its parse options. Two
    configs with equal keys parse any source identically and sink the
    same parse-stage quirks, so the campaign's front-end cache shares one
    parse between them. *)
type parse_key = {
  pk_es5 : bool;
  pk_for_missing_body : bool;
  pk_dup_params : bool;
  pk_delete_unqualified : bool;
}

(** Injective packing of a parse key into the low 4 bits of an int —
    the front-end and execution-sharing caches key their tables by this
    (plus mode/fuel bits) so lookups hash a plain int instead of
    polymorphic-hashing a record. *)
val pk_int : parse_key -> int

type config = {
  cfg_engine : engine;
  cfg_version : string;
  cfg_build : string;
  cfg_release : string;
  cfg_es : es_edition;
  cfg_quirks : Jsinterp.Quirk.Set.t;  (** bugs present in this build *)
  cfg_pkey : parse_key;
      (** the config's {!parse_key}, precomputed once — consumed per
          testbed per case by the execution-sharing cache *)
  cfg_index : int;  (** position in the engine's history, oldest = 0 *)
  cfg_testbed_ids : string * string;
      (** [Engine.testbed_id] of its normal- and strict-mode testbeds,
          built once with the config *)
}

(** Bug assignment: quirk plus the version-index range it lives in. *)
type assignment = { aq : Jsinterp.Quirk.t; since : int; fixed : int option }

(** The raw bug assignments of one engine (ground truth for the tests). *)
val assignments : engine -> assignment list

(** All versions of one engine, oldest first. *)
val configs_of : engine -> config list

(** Every engine-version configuration — 51 rows, as in Table 1. *)
val all_configs : config list

val latest : engine -> config
val find_config : engine:engine -> version:string -> config option

(** The distinct (engine, bug) pairs seeded anywhere in the registry: the
    population a perfect fuzzer could discover. *)
val all_bugs : (engine * Jsinterp.Quirk.t) list

(** Earliest version of [engine] exhibiting the quirk (Table 3 rule). *)
val earliest_version : engine -> Jsinterp.Quirk.t -> string option

(** Front-end options implementing the version's supported ES edition. *)
val parse_opts_of_config : config -> Jsparse.Parser.options

(** The config's precomputed {!type-parse_key} ([cfg_pkey]). *)
val parse_key : config -> parse_key

(** The conforming reference front end (standard profile, no parser
    quirks) — the key under which reference runs join the sharing cache. *)
val reference_parse_key : parse_key
