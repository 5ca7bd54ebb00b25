(** The subdivision reduction behind {!Directed} and {!Edge_labeled}.

    Every edge [u - v] of an original graph becomes a {e mid node} joined
    to [u] and [v] by two {e half edges}, the way conceptual graphs model
    relations as typed nodes. The mid node's label and the two half labels
    carry what plain Taxogram cannot see: an arc's direction, or an edge's
    concept in a taxonomy. Embeddings of an encoded pattern in an encoded
    graph correspond one-to-one to the embeddings of the original pattern
    that respect those labels, so supports, frequency and
    over-generalization all transfer. A mined pattern that is no encoding
    is an artifact and is dropped; the patterns that decode are exactly
    the minimal, complete set of original patterns. *)

val taxonomy :
  Tsg_taxonomy.Taxonomy.t list -> extra:string list -> Tsg_taxonomy.Taxonomy.t
(** The original concepts of the given taxonomies, in order, with their
    is-a edges, then the [extra] names as isolated concepts. A single
    taxonomy's original concepts keep their ids. *)

val encode :
  Tsg_graph.Label.id array ->
  (int * int * Tsg_graph.Label.id * Tsg_graph.Label.id * Tsg_graph.Label.id)
  array ->
  Tsg_graph.Graph.t
(** [encode labels edges]: real nodes [0..n-1] labeled [labels], then for
    the [k]-th edge [(u, v, mid, hu, hv)] the mid node [n+k] labeled [mid],
    joined to [u] by a half edge labeled [hu] and to [v] by one labeled
    [hv]. *)

val decode :
  is_mid:(Tsg_graph.Label.id -> bool) ->
  node:(Tsg_graph.Label.id -> Tsg_graph.Label.id option) ->
  edge:
    (Tsg_graph.Label.id ->
    int * Tsg_graph.Label.id ->
    int * Tsg_graph.Label.id ->
    (int * int * Tsg_graph.Label.id) option) ->
  build:
    (Tsg_graph.Label.id array -> (int * int * Tsg_graph.Label.id) list -> 'g) ->
  Tsg_graph.Graph.t ->
  'g option
(** Inverse of {!encode}. Real nodes (labels failing [is_mid]) are
    renumbered in order, their labels mapped by [node]; [edge mid (x, hx)
    (y, hy)] maps a mid node's label and its two (renumbered neighbour,
    half label) pairs to an original edge. [None] on an artifact: a
    real–real edge, a mid node that does not join exactly two real nodes,
    no mid node at all, a [None] from [node] or [edge], or a graph [build]
    refuses with [Invalid_argument]. *)

type 'g t = {
  taxonomy : Tsg_taxonomy.Taxonomy.t;  (** what encodings are mined against *)
  encode : 'g -> Tsg_graph.Graph.t;
  decode : Tsg_graph.Graph.t -> 'g option;
}
(** One instance of the reduction, over original graphs of type ['g]. *)

type 'g pattern = {
  graph : 'g;
  support_count : int;
  support : float;
  support_set : Tsg_util.Bitset.t;
}

val run :
  'g t -> Taxogram.Spec.t -> 'g list -> 'g pattern list * Taxogram.result
(** Mine the encodings under the spec, its edge cap doubled (the cap counts
    original edges), and decode: patterns come in [`Collect] order with
    artifacts dropped, so they are identical at any domain count. The
    result is the run's own, over encoded patterns. Raises
    [Invalid_argument] on a [`Stream] spec, whose callback would see
    encoded patterns. *)

val mine : 'g t -> Taxogram.config -> 'g list -> 'g pattern list
(** {!run} under a default [`Collect] spec with the given config. *)
