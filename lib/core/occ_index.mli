(** Taxonomy-projected occurrence indices (paper Section 3, Step 2).

    For a pattern class (a frequent pattern of the relabeled database), the
    occurrence index assigns to each pattern node position an {e occurrence
    index entry}: a projection of the taxonomy onto the labels covered by the
    class at that position, where every label carries the bitset of
    occurrence ids whose original label at that position descends from it.

    A single generalized-isomorphism test result (one gSpan embedding) is
    thereby shared by every member of the pattern class: the occurrence set
    of any specialized pattern is an intersection of per-position label sets
    (Lemma 7), with no further isomorphism tests or database scans.

    {b Layout.} An entry is dense: each covered label has a {e slot}, its
    index in first-met order (occurrence order, then increasing ancestor
    id), and the entry keeps per-slot arrays — label, occurrence set,
    member count — plus the sub-taxonomy as slot indices: slot [k]'s
    children inside the entry are
    [children.(first_child.(k)) .. children.(first_child.(k + 1) - 1)], in
    {!Tsg_taxonomy.Taxonomy.children} order. Step 3 walks these slots and
    never looks a label up.

    {b Graph ranks.} Embedding lists are in graph-id order, so numbering
    the class's distinct graphs [0 .. graph_count - 1] in that order gives
    every occurrence a class-local graph rank that never decreases with
    the occurrence id. The support of an occurrence set is the number of
    distinct ranks among its members, and its {e rank set} (a bitset of
    [graph_count] bits) bounds the support of any subset of it. *)

(** Size accounting — the quantities the paper's Lemmas 4 and 5 bound. *)
type size = {
  positions : int;
  entries : int;  (** OIE labels (slots) across all positions *)
  set_members : int;  (** total occurrence-set members (set bits) *)
}

(** One position's occurrence index entry, indexed by slot. *)
type entry = {
  labels : Tsg_graph.Label.id array;  (** slot -> covered label *)
  sets : Tsg_util.Bitset.t array;  (** slot -> occurrence set (OcS) *)
  members : int array;  (** slot -> member count of its set *)
  class_slot : int;  (** the slot of the position's class label *)
  first_child : int array;
      (** slot -> first index of its children in [children]; one element
          more than there are slots *)
  children : int array;
      (** each slot's in-entry children, as slots, in taxonomy order *)
}

type t = {
  class_graph : Tsg_graph.Graph.t;
      (** most general member of the class; node ids are positions *)
  class_support_set : Tsg_util.Bitset.t;  (** over database graph ids *)
  occ_count : int;
  occ_gid : int array;  (** occurrence id -> database graph id *)
  occ_rank : int array;
      (** occurrence id -> class-local graph rank (never decreasing) *)
  graph_count : int;  (** distinct graphs of the class = number of ranks *)
  entries : entry array;  (** per position: the OIE *)
  all_occs : Tsg_util.Bitset.t;  (** the full occurrence set of the class *)
  db_size : int;
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

    Cost: per position, the occurrences' original labels are gathered
    into one int array; then one visit per (occurrence, position,
    ancestor of the original label), walked as a slice of the taxonomy's
    flat ancestor array ({!Tsg_taxonomy.Taxonomy.flat}) in a plain loop,
    each one array read in a label-indexed slot table, one
    {!Tsg_util.Bitset.set} and one member-count increment; no hashing
    and no closure call per visit. The table (one int per taxonomy
    label, per domain) is reset through the labels each position
    touched, and [keep_label] runs once per (position, label) met.
    Before the reset, each slot's children are read off the flat child
    array and looked up in the table once to record the in-entry
    children. Per position the entry allocates its five arrays and one
    bitset per slot.

    @raise Invalid_argument when the pattern's embeddings are not in
    graph-id order (the ranks rely on it). *)

val occurrence_set : t -> position:int -> Tsg_graph.Label.id -> Tsg_util.Bitset.t option
(** [OcS] of a label within a position's entry. A scan of the entry's
    labels: O(slots), for tests and tools, not for the Step-3 walk. *)

val covered_labels : t -> position:int -> Tsg_graph.Label.id list
(** Labels present in the position's entry, sorted. *)

val ranks_into : t -> dst:Tsg_util.Bitset.t -> Tsg_util.Bitset.t -> int
(** [ranks_into t ~dst occs] overwrites [dst] (capacity [t.graph_count])
    with the rank set of [occs] and returns its size: the number of
    distinct database graphs among the occurrences, the support
    numerator. {!Tsg_util.Bitset.project_into} through [occ_rank]: one
    array read and one comparison per member, no closure call; writes
    only [dst]. *)

val graph_set : t -> Tsg_util.Bitset.t -> Tsg_util.Bitset.t
(** Distinct database graph ids of an occurrence set, as a fresh bitset
    over the database: {!Tsg_util.Bitset.project_into} through
    [occ_gid]. *)

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
    It also re-derives the dense layout: member counts, set capacities,
    distinct slot labels, the class slot, each slot's children against
    {!Tsg_taxonomy.Taxonomy.children}, and the graph ranks against the
    occurrence graph ids. Returns discrepancy descriptions ([[]] when the
    index is sound). [keep_label] must be the filter the index was built
    with. Exponential in pattern size — debug/test use only.

    When the [TSG_DEBUG_CHECKS] environment variable is set
    ({!Tsg_util.Debug.checks_enabled}) and the instance is small, {!build}
    runs this automatically and raises [Failure] on any discrepancy. *)

val size : t -> size
(** O(1): {!build} counts entries and set members as it creates them
    (every visit sets a new bit, so the members are the visits kept). *)
