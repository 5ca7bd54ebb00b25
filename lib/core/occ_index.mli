(** Taxonomy-projected occurrence indices (paper Section 3, Step 2).

    For a pattern class (a frequent pattern of the relabeled database), the
    occurrence index assigns to each pattern node position an {e occurrence
    index entry}: a projection of the taxonomy onto the labels covered by the
    class at that position, where every label carries the bitset of
    occurrence ids whose original label at that position descends from it.

    A single generalized-isomorphism test result (one gSpan embedding) is
    thereby shared by every member of the pattern class: the occurrence set
    of any specialized pattern is an intersection of per-position label sets
    (Lemma 7), with no further isomorphism tests or database scans. *)

(** Size accounting — the quantities the paper's Lemmas 4 and 5 bound. *)
type size = {
  positions : int;
  entries : int;  (** OIE labels across all positions *)
  set_members : int;  (** total occurrence-set members (set bits) *)
}

type t = {
  class_graph : Tsg_graph.Graph.t;
      (** most general member of the class; node ids are positions *)
  class_support_set : Tsg_util.Bitset.t;  (** over database graph ids *)
  occ_count : int;
  occ_gid : int array;  (** occurrence id -> database graph id *)
  entries : (Tsg_graph.Label.id, Tsg_util.Bitset.t) Hashtbl.t array;
      (** per position: covered label -> occurrence set (the OIE) *)
  all_occs : Tsg_util.Bitset.t;  (** the full occurrence set of the class *)
  db_size : int;
  mutable stamp : int;  (** internal, for {!distinct_graph_count} *)
  seen : int array;  (** internal scratch, stamped per graph id *)
  counted : size;  (** internal: what {!size} returns, counted by {!build} *)
}

val build :
  taxonomy:Tsg_taxonomy.Taxonomy.t ->
  original:Tsg_graph.Db.t ->
  ?keep_label:(Tsg_graph.Label.id -> bool) ->
  Tsg_gspan.Gspan.pattern ->
  t
(** Build the index from a pattern of the relabeled database and the
    {e original} database (for original labels). [keep_label] implements
    enhancement (b): ancestor labels failing it are left out of the entries
    (default: keep everything). The position's own class label is always
    kept.

    Cost: one visit per (occurrence, position, ancestor of the original
    label), each one array read in a label-indexed slot table plus one
    {!Tsg_util.Bitset.set}; no hashing per visit. The table (one int per
    taxonomy label, per domain) is reset through the labels each position
    touched, [keep_label] runs once per (position, label) met, and each
    position's hash table is filled once per entry at the end, in
    first-met order: occurrence order, then increasing ancestor id. *)

val occurrence_set : t -> position:int -> Tsg_graph.Label.id -> Tsg_util.Bitset.t option
(** [OcS] of a label within a position's entry. *)

val covered_labels : t -> position:int -> Tsg_graph.Label.id list
(** Labels present in the position's entry, sorted. *)

val distinct_graph_count : t -> Tsg_util.Bitset.t -> int
(** Number of distinct database graphs among an occurrence set — the support
    numerator. Uses a generation-stamped scratch array; not thread-safe. *)

val graph_set : t -> Tsg_util.Bitset.t -> Tsg_util.Bitset.t
(** Distinct database graph ids of an occurrence set, as a bitset over the
    database. *)

val self_check :
  taxonomy:Tsg_taxonomy.Taxonomy.t ->
  original:Tsg_graph.Db.t ->
  ?keep_label:(Tsg_graph.Label.id -> bool) ->
  t ->
  string list
(** Cross-validate the index against brute-force {!Tsg_iso.Gen_iso}
    embedding enumeration over the original database: total and per-graph
    occurrence counts, the class support set, every occurrence-index-entry
    bitset cardinality per position and covered label, and the
    subset relation between a descendant label's set and its ancestors'.
    Returns discrepancy descriptions ([[]] when the index is sound).
    [keep_label] must be the filter the index was built with. Exponential
    in pattern size — debug/test use only.

    When the [TSG_DEBUG_CHECKS] environment variable is set
    ({!Tsg_util.Debug.checks_enabled}) and the instance is small, {!build}
    runs this automatically and raises [Failure] on any discrepancy. *)

val size : t -> size
(** O(1): {!build} counts entries and set members as it creates them
    (every visit sets a new bit, so the members are the visits kept). *)
