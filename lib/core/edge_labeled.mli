(** Taxonomy-superimposed mining with an is-a hierarchy over {e edge} labels
    too.

    The paper's definitions omit edge labels "without loss of generality"
    (Section 2). This module makes that claim concrete: given a taxonomy for
    node labels and a second taxonomy for edge labels, every edge
    [u -(e)- v] is subdivided, as an instance of the {!Subdivision}
    reduction, through an auxiliary {e edge node} labeled with [e]'s
    concept in a combined taxonomy (both half edges are labeled 0).
    Generalized matching on the subdivided graphs is exactly generalized
    matching with taxonomies on both nodes and edges: an edge labeled
    [transport] in a pattern matches a database edge labeled
    [carrier-mediated transport], and so on. *)

type env

val prepare :
  node_taxonomy:Tsg_taxonomy.Taxonomy.t ->
  edge_taxonomy:Tsg_taxonomy.Taxonomy.t ->
  env
(** Build the combined taxonomy. Node- and edge-label names must be
    disjoint; @raise Invalid_argument otherwise. *)

val taxonomy : env -> Tsg_taxonomy.Taxonomy.t
(** The combined taxonomy. *)

val node_concept : env -> Tsg_graph.Label.id -> Tsg_graph.Label.id
(** Combined-taxonomy id of a node-taxonomy label. *)

val edge_concept : env -> Tsg_graph.Label.id -> Tsg_graph.Label.id
(** Combined-taxonomy id of an edge-taxonomy label. *)

val node_concept_back : env -> Tsg_graph.Label.id -> Tsg_graph.Label.id option
(** Node-taxonomy id of a combined label, when it is one. *)

val edge_concept_back : env -> Tsg_graph.Label.id -> Tsg_graph.Label.id option

val encode : env -> Tsg_graph.Graph.t -> Tsg_graph.Graph.t
(** Subdivision image of a graph whose node labels are node-taxonomy ids and
    edge labels are edge-taxonomy ids. *)

val decode : env -> Tsg_graph.Graph.t -> Tsg_graph.Graph.t option
(** Back to an edge-labeled graph ([None] on subdivision artifacts). *)

type pattern = Tsg_graph.Graph.t Subdivision.pattern
(** Node labels are node-taxonomy ids; edge labels are edge-taxonomy ids. *)

val mine :
  ?min_support:float ->
  ?max_edges:int ->
  ?enhancements:Specialize.enhancements ->
  env ->
  Tsg_graph.Graph.t list ->
  pattern list
(** Mine with generalization on both node and edge labels
    ({!Subdivision.mine}). Minimal and complete over connected
    edge-labeled patterns with at least one edge. *)
