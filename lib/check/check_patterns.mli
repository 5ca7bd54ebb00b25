(** Lint pass over mined pattern sets (rules [PAT001]..[PAT008]).

    Patterns are analyzed after parsing ({!Tsg_core.Pattern_io}); findings
    anchor to each pattern's [p]-header line when the set came from a file.

    Rules (see DESIGN.md for the catalog):
    - [PAT001] error: pattern graph is not connected
    - [PAT002] error: node numbering is not the minimum-DFS-code order
      ({!Tsg_gspan.Min_code}) — canonical form is what makes
      isomorphism-dedup a string comparison
    - [PAT003] error: duplicate pattern (isomorphic with equal labels)
    - [PAT004] error: support monotonicity violated — a generalization
      recorded with {e smaller} support than one of its specializations
      (impossible: [GenSet(spec) ⊆ GenSet(gen)], paper Lemma 7)
    - [PAT005] warning: over-generalization residue — a strict
      generalization with support {e equal} to a specialization's should
      have been eliminated by the paper's equal-support rule
    - [PAT006] error: headers disagree on the database size
    - [PAT007] error: node label that is not a taxonomy concept (only when
      a taxonomy is supplied)
    - [PAT008] info: pattern-set statistics (only with [~stats])

    The pairwise rules ([PAT003]..[PAT005]) compare patterns under
    generalized graph isomorphism ({!Tsg_iso.Gen_iso.graph_isomorphic}),
    so they subsume single-node-relabeling generalizations. They test only
    pairs of one {e shape}: the minimum-DFS-code key
    ({!Tsg_gspan.Min_code.canonical_key}) of the pattern graph with every
    node label erased. This is sound: between patterns of equal size, a
    generalized isomorphism in either direction maps the nodes one to one
    and each edge onto an edge of equal label, so it maps the edge sets
    onto each other and is an isomorphism of the two graphs with node
    labels erased. A disconnected pattern ([PAT001]) has no canonical key
    and is tested against the disconnected patterns of its node and edge
    counts (the isomorphism keeps it disconnected). The findings are those
    of a test of every pair of equal node and edge counts. *)

val check_located :
  Tsg_util.Diagnostic.collector ->
  ?file:string ->
  ?taxonomy:Tsg_taxonomy.Taxonomy.t ->
  ?stats:bool ->
  node_labels:Tsg_graph.Label.t ->
  edge_labels:Tsg_graph.Label.t ->
  Tsg_core.Pattern_io.located list ->
  unit
(** [edge_labels] must be the table the set was parsed with — [PAT002]
    compares against {!Tsg_core.Pattern_io.canonical_form}, whose node
    order is defined over edge-label {e names}. *)

val validate :
  Tsg_util.Diagnostic.collector ->
  ?taxonomy:Tsg_taxonomy.Taxonomy.t ->
  node_labels:Tsg_graph.Label.t ->
  db_size:int ->
  Tsg_core.Pattern.t list ->
  unit
(** In-memory counterpart for save-time validation (no source locations;
    patterns are identified by position). [PAT002] is not applied:
    in-memory pattern graphs carry their pattern-class numbering and are
    canonicalized by {!Tsg_core.Pattern_io} on write. *)
