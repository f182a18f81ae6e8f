(** Aggregation of campaign results into the paper's tables and figures.

    Counting joins campaign discoveries with the ground-truth catalogue
    (developer confirmation status, Test262 acceptance, affected component,
    object type), the way the paper's tables summarise tracker data. *)

(** Table 2 rows: engine, found, verified, fixed, accepted-by-Test262. *)
val table2 : Campaign.result -> (string * int * int * int * int) list

(** Table 3 rows: engine, version (earliest-version attribution), found,
    verified, fixed, newly-discovered. Only versions with bugs appear. *)
val table3 :
  Campaign.result -> (string * string * int * int * int * int) list

(** Table 4 rows: discovery mechanism, found, confirmed, fixed, Test262. *)
val table4 : Campaign.result -> (string * int * int * int * int) list

(** Table 5 rows: object type, found, confirmed, fixed — sorted by count. *)
val table5 : Campaign.result -> (string * int * int * int) list

(** Figure 7 rows: compiler component, found, fixed. *)
val fig7 : Campaign.result -> (string * int * int) list

(** Supervision summary rows: aggregate fault/retry/quarantine counters,
    cases lost to worker failures, then one ["quarantined:<testbed>"] row
    per dropped testbed (value = the case index that tripped the
    threshold). All-zero/empty for an unsupervised campaign. *)
val supervision_summary : Campaign.result -> (string * int) list

(** Size of the seeded ground-truth bug population. *)
val ground_truth_total : unit -> int
