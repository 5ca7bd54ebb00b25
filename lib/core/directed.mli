(** Taxonomy-superimposed mining of {e directed} graphs.

    The paper states that Taxogram handles directed graphs but, being built
    on a gSpan implementation without direction support, evaluates only
    undirected data (Section 4.1). This module provides the directed mode
    as an instance of the {!Subdivision} reduction: every arc [u -(e)-> v]
    is subdivided into an auxiliary {e arc node} carrying a reserved label,
    connected to [u] by an edge labeled [2e] ("source side") and to [v] by
    an edge labeled [2e+1] ("target side"), so embeddings of an encoded
    pattern respect arc direction. *)

type env = Tsg_graph.Digraph.t Subdivision.t
(** The instance of {!Subdivision}: a taxonomy extended with the reserved
    arc concept; {!Subdivision.run} mines it under a caller's spec. *)

val arc_concept_name : string
(** ["<arc>"] — reserved; [prepare] rejects taxonomies that define it. *)

val prepare : Tsg_taxonomy.Taxonomy.t -> env
(** @raise Invalid_argument if the taxonomy already uses
    {!arc_concept_name}. *)

val taxonomy : env -> Tsg_taxonomy.Taxonomy.t
(** The extended taxonomy (the arc concept is an isolated root). *)

val arc_label : env -> Tsg_graph.Label.id

val encode : env -> Tsg_graph.Digraph.t -> Tsg_graph.Graph.t
(** Arc-subdivision image. Nodes [0..n-1] are the original nodes; node
    [n+k] is the arc node of the k-th arc (in {!Tsg_graph.Digraph.arcs}
    order). *)

val decode : env -> Tsg_graph.Graph.t -> Tsg_graph.Digraph.t option
(** Inverse on complete images: [None] when the graph contains a dangling
    arc node, an arc node with inconsistent edge labels, or an edge between
    two non-arc nodes. Non-arc nodes keep their relative order. *)

val canonical_key : env -> Tsg_graph.Digraph.t -> string
(** Isomorphism-invariant key for weakly connected digraphs (labels
    included), via the encoding's minimum DFS code. *)

type pattern = Tsg_graph.Digraph.t Subdivision.pattern

val mine :
  ?min_support:float ->
  ?max_arcs:int ->
  ?enhancements:Specialize.enhancements ->
  env ->
  Tsg_graph.Digraph.t list ->
  pattern list
(** Mine the directed database (defaults: [min_support = 0.2], unbounded
    size, all enhancements) with {!Subdivision.mine}. The result is
    minimal and complete over weakly-connected directed patterns with at
    least one arc. *)

val pp_pattern :
  names:Tsg_graph.Label.t -> Format.formatter -> pattern -> unit
