(** Canonical adjacency-matrix codes — the canonical form of AcGM
    (Inokuchi et al.), the level-wise miner the paper's TAcGM comparator
    extends.

    A labeled graph's code is its adjacency matrix read in column blocks
    ([node label], then the upper-triangular edge entries of the column,
    0 for no edge, label+1 otherwise) under the node ordering that
    lexicographically minimizes the sequence. Two graphs have equal codes
    iff they are isomorphic with identical labels — the same equivalence
    as {!Tsg_gspan.Min_code.canonical_key}, computed by a completely
    different route, which makes the two implementations mutual
    cross-checks; only the tests use it. Branch-and-bound over node
    orderings: exponential worst case, intended for pattern-sized graphs.
    Works on disconnected graphs too (unlike DFS codes). *)

val code : Tsg_graph.Graph.t -> int array
(** Minimal column-block code. *)

val key : Tsg_graph.Graph.t -> string
(** [code] serialized; equal iff isomorphic (labels included). *)

val same_class : Tsg_graph.Graph.t -> Tsg_graph.Graph.t -> bool
(** [key]-equality with cheap size prechecks. *)
