(** Test262-style export of discovered conformance bugs (paper §5.4: 21
    Comfort-generated test cases were accepted into the official suite).

    Each exportable discovery renders to a self-contained conformance test
    in the Test262 house style: YAML front matter, a miniature assert
    harness, and assertions against the conforming behaviour. A conforming
    engine prints ["PASS"]; an engine carrying the bug prints the failing
    assertion. *)

(** Render one discovery to [(filename, file contents)]; [None] when no
    conformance assertion is authored for its quirk. Crash and
    performance bugs have none (they are reported upstream rather than
    contributed as conformance tests, as in the paper). *)
val render : Campaign.discovery -> (string * string) option

(** Render every exportable discovery of a campaign. *)
val export : Campaign.result -> (string * string) list

(** Does this engine configuration pass the exported test? *)
val passes : Engines.Registry.config -> string -> bool
