(** Cross-artifact lint passes (rules [X001]..[X003]).

    - [X001] warning: a pattern node label outside the taxonomy closure of
      the database's labels — no database node can specialize it, so the
      pattern can never match ({!check_closure})
    - [X002] error: a {!Tsg_query.Store} index disagrees with the pattern
      set it was built from ({!check_store})
    - [X003] error: a pattern's recorded support differs from its true
      generalized-isomorphism support against the database — brute force,
      opt-in via [tsg-lint --deep] ({!check_supports}) *)

val check_closure :
  Tsg_util.Diagnostic.collector ->
  ?file:string ->
  taxonomy:Tsg_taxonomy.Taxonomy.t ->
  db_labels:Tsg_util.Bitset.t ->
  node_labels:Tsg_graph.Label.t ->
  Tsg_core.Pattern_io.located list ->
  unit
(** [db_labels] is a bitset over taxonomy label ids of the labels that
    actually occur in the database(s). Pattern labels outside the taxonomy
    are [PAT007]'s business and are skipped here. *)

val check_store :
  Tsg_util.Diagnostic.collector -> Tsg_query.Store.t -> unit
(** Re-derive every index of the store from its own pattern array and
    compare: generalizing/mentioning membership per taxonomy label,
    edge-count buckets, and the support-sorted order. The label indexes
    are re-derived from the taxonomy side, not by {!Tsg_query.Store.build}'s
    walk over each pattern label's descendants: one bitset per label holds
    the patterns carrying it, the expected [generalizing l] is the union
    of these sets over the ancestors of [l]
    ({!Tsg_taxonomy.Taxonomy.ancestor_set}), and the expected
    [mentioning l] the union over its descendants
    ({!Tsg_taxonomy.Taxonomy.descendant_set}). *)

val check_supports :
  Tsg_util.Diagnostic.collector ->
  ?file:string ->
  taxonomy:Tsg_taxonomy.Taxonomy.t ->
  db:Tsg_graph.Db.t ->
  Tsg_core.Pattern_io.located list ->
  unit
