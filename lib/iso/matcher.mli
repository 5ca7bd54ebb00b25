(** Backtracking (sub)graph-isomorphism engine with pluggable label
    compatibility.

    This is the single matching core behind both exact subgraph isomorphism
    and the paper's {e generalized} subgraph isomorphism (where a pattern
    node labeled [l] may map to a target node whose label is [l] or any
    descendant of [l]). Matching is non-induced: every pattern edge must map
    to a target edge with a compatible label, extra target edges are
    allowed. Node mappings are injective. *)

type spec = {
  node_ok : Tsg_graph.Label.id -> Tsg_graph.Label.id -> bool;
      (** [node_ok pattern_label target_label] *)
  edge_ok : Tsg_graph.Label.id -> Tsg_graph.Label.id -> bool;
      (** [edge_ok pattern_label target_label] *)
}

val equal_labels : spec
(** Exact label equality on nodes and edges. *)

val exists : spec -> pattern:Tsg_graph.Graph.t -> target:Tsg_graph.Graph.t -> bool
(** Is there at least one subgraph-isomorphic embedding of [pattern] in
    [target]? The empty pattern embeds everywhere. *)

val iter_embeddings :
  ?limit:int ->
  spec ->
  pattern:Tsg_graph.Graph.t ->
  target:Tsg_graph.Graph.t ->
  (int array -> unit) ->
  unit
(** Call the function once per embedding with the assignment array
    (pattern node -> target node; the array is fresh per call). Distinct
    assignments are distinct embeddings even when they cover the same target
    nodes (automorphic images). Stops after [limit] embeddings if given. *)

val count_embeddings :
  ?limit:int ->
  spec -> pattern:Tsg_graph.Graph.t -> target:Tsg_graph.Graph.t -> int

val exists_bijective :
  spec -> pattern:Tsg_graph.Graph.t -> target:Tsg_graph.Graph.t -> bool
(** Generalized {e graph} isomorphism: a bijection of the node sets
    preserving edges in both directions with compatible labels. This is the
    paper's [IS_GEN_ISO] when used with a taxonomy-aware [spec]. *)

(** {1 Compiled patterns}

    Every search follows a {e plan}: a static order over the pattern's
    nodes with, per position, the edges back to earlier positions.
    {!exists}, {!iter_embeddings}, {!count_embeddings} and
    {!exists_bijective} compile the plan on each call, and only when the
    pattern's node count fits the target's. A caller that tests one
    pattern against many targets compiles it once instead. *)

type compiled
(** A pattern graph's matching plan. Immutable: each search allocates its
    own scratch state, so one compiled pattern may serve concurrent
    searches on several domains. *)

val compile : Tsg_graph.Graph.t -> compiled

val exists_compiled : spec -> compiled -> target:Tsg_graph.Graph.t -> bool
(** [exists_compiled spec (compile pattern) ~target] is
    [exists spec ~pattern ~target]. *)
