(** Lint pass over graph-database files (rules [DB001]..[DB008]).

    Works on the {e raw} parse ({!Tsg_graph.Serial.raw_db}) so files
    {!Tsg_graph.Graph.build} would reject — dangling endpoints, self loops,
    duplicate edges — are still analyzed end to end with precise
    [file:line] locations.

    Rules (see DESIGN.md for the catalog):
    - [DB001] error: bad, duplicate or missing node index within a graph
    - [DB002] error: edge endpoint never declared by a [v] line
    - [DB003] error: self loop
    - [DB004] error: duplicate edge (either endpoint order)
    - [DB005] error: node label that is not a taxonomy concept (only when
      a taxonomy is supplied)
    - [DB006] warning: graph with no nodes
    - [DB007] error: unrecognized or misplaced line
    - [DB008] info: database statistics (only with [~stats]) *)

val check_raw :
  Tsg_util.Diagnostic.collector ->
  ?file:string ->
  ?taxonomy:Tsg_taxonomy.Taxonomy.t ->
  ?stats:bool ->
  Tsg_graph.Serial.raw_db ->
  unit

val validate :
  Tsg_util.Diagnostic.collector ->
  taxonomy:Tsg_taxonomy.Taxonomy.t ->
  Tsg_graph.Db.t ->
  unit
(** In-memory counterpart for load-time validation (no source locations):
    every node-label id of every graph must be a taxonomy concept
    ([DB005]). Structural invariants are already enforced by
    {!Tsg_graph.Graph.build}. *)
