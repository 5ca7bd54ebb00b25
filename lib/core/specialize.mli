(** Step 3 of Taxogram: enumerating specialized patterns from a pattern
    class via its occurrence index, while eliminating over-generalized
    patterns (paper Section 3, Step 3).

    Starting from the most general member of the class, node positions are
    specialized left-to-right (the processed-node-set discipline: once a
    later position has been touched, earlier positions are frozen — this is
    the paper's PNS), each step replacing a position's label by one of its
    children in the occurrence index entry and intersecting occurrence sets
    (Lemma 7). A pattern is over-generalized iff some single child
    replacement at {e any} position — frozen ones included, which is the
    paper's PNS follow-up check — preserves its support. Labels reachable
    through several DAG paths are deduplicated with a visited set (the
    paper's "visited vertex labels ... are marked").

    {b Walk.} The walk runs on the entries' slots ({!Occ_index.entry}), not
    on labels: a pattern is a vector of slots, one per position (which
    maps one-to-one onto its label vector within the class), a slot's
    children are read off the entry's child arrays, and labels are looked
    up only to emit a pattern. Per class, each (position, slot)'s
    effective children (after collapse (d)) form a candidate table built
    on the first visit that needs it, in arrays indexed by slot.

    {b Cost model and bound.} A visit carries its occurrence set, that
    set's rank set over the class's graphs ({!Occ_index.ranks_into}) and
    its support. Each candidate first costs one
    {!Tsg_util.Bitset.inter_cardinal} of the two rank sets
    ([graph_count] bits, never more words than the occurrence sets):
    since a graph holding a common occurrence holds an occurrence of
    each, [|R(ocs) ∧ R(child)|] bounds the candidate's support. Only when
    the bound reaches the visit's support (and no over-generalizing child
    has been found yet) or, at a position not frozen, the descent
    threshold ([min_support] under child pruning, else 1), does the
    candidate pay the occurrence-set intersection and the exact
    distinct-graph count. No bitset is allocated per candidate. *)

type enhancements = {
  child_pruning : bool;
      (** (a): stop descending below a child whose pattern is infrequent *)
  label_prefilter : bool;
      (** (b): drop globally-infrequent taxonomy labels from occurrence
          indices (consumed by {!Taxogram} when building indices) *)
  start_preprocess : bool;
      (** (c): advance a position's start label to a child with an
          identical occurrence set before enumerating, repeatedly (only
          when every covered label strictly below the current start label
          also descends from that child, which keeps the step complete on
          DAG taxonomies) *)
  collapse_equal_children : bool;
      (** (d): skip a label whose occurrence set equals one of its
          children's (equal member counts: the child's set is a subset),
          exposing its children directly *)
}

val all_on : enhancements

val all_off : enhancements
(** The paper's baseline: Taxogram without the efficiency enhancements. *)

type stats = {
  mutable intersections : int;
      (** candidate replacements tested, one per (visit, candidate child);
          a test the rank bound settles counts too, so this is the walk's
          size, not the number of {!Tsg_util.Bitset.inter_into} calls *)
  mutable visited : int;  (** patterns whose support was computed *)
  mutable emitted : int;
  mutable over_generalized : int;  (** visited patterns found over-general *)
}

val fresh_stats : unit -> stats

exception Out_of_time
(** Raised by {!enumerate} when the time budget runs out mid-class. *)

val enumerate :
  taxonomy:Tsg_taxonomy.Taxonomy.t ->
  min_support:int ->
  enhancements:enhancements ->
  ?stats:stats ->
  ?budget:Tsg_util.Timer.Budget.budget ->
  Occ_index.t ->
  (Pattern.t -> unit) ->
  unit
(** Emit every non-over-generalized pattern of the class with support at
    least [min_support] (an absolute graph count) — the class's most general
    member included when it qualifies.
    @raise Out_of_time when [budget] (default unlimited) expires; patterns
    already emitted stand. *)
