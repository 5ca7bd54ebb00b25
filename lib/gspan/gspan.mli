(** gSpan: frequent connected-subgraph mining over a graph database
    (Yan & Han, ICDM 2002) — the general-purpose miner Taxogram's Step 2
    extends.

    Depth-first pattern growth: each frequent pattern is visited exactly once
    (duplicates are cut by the minimum-DFS-code test), and only one pattern's
    embedding list is alive per recursion branch, which is the memory profile
    the paper contrasts with the level-wise TAcGM.

    Cost model of one extension step: a first walk over the parent's
    embeddings visits every rightmost-path candidate once and tallies its
    edge's distinct-graph support in a per-domain int-keyed table (no
    embedding built, no edge record compared); the minimality test runs
    on the frequent candidates only; a second pass, over the first walk's
    recorded candidates rather than the graphs, builds embeddings for the
    frequent, minimal extensions only. Embedding lists are in graph-id
    order — seeds are collected in database order and each child list in
    its parent's — which is what lets one last-graph-id stamp per
    candidate count distinct graphs. *)

type embedding = {
  graph_id : int;
  map : int array;  (** pattern DFS index -> node of the database graph *)
}

type pattern = {
  code : Dfs_code.t;
  graph : Tsg_graph.Graph.t;  (** node ids are DFS indices *)
  support_set : Tsg_util.Bitset.t;  (** database graph ids *)
  support : int;  (** [Bitset.cardinal support_set] *)
  embeddings : embedding list;
      (** all occurrences, in nondecreasing [graph_id] order; persistent
          (maps are never mutated after being reported) *)
}

val mine :
  ?max_edges:int ->
  min_support:int ->
  Tsg_graph.Db.t ->
  (pattern -> unit) ->
  unit
(** [mine ~min_support db report] calls [report] once per frequent connected
    pattern with at least one edge and at most [max_edges] edges (default:
    unbounded). [min_support] is an absolute graph count, at least 1.
    Patterns arrive in DFS (minimum-code lexicographic) order. *)

val mine_list :
  ?max_edges:int -> min_support:int -> Tsg_graph.Db.t -> pattern list
(** Collect reported patterns (embedding lists copied so they stay valid). *)

val mine_tasks :
  ?max_edges:int ->
  min_support:int ->
  Tsg_graph.Db.t ->
  ((pattern -> unit) -> unit) list
(** The search decomposed for a domain pool: one closure per frequent
    1-edge DFS-code root, in the same sorted seed order {!mine} visits
    them. Applying a closure to a report callback explores that root's
    rightmost-path extension subtree exactly as {!mine} would (the root
    pattern is reported first), and the subtrees partition the pattern
    space — running every task, in any order or concurrently, reports
    each frequent pattern exactly once. Closures share only immutable
    state ([db] and the seed embeddings), so they may run on different
    domains; a callback may raise to abandon its subtree. [mine db r] is
    equivalent to applying every task to [r] in list order. *)

val mine_seed_tasks :
  ?max_edges:int ->
  ?select:(Tsg_graph.Label.id * Tsg_graph.Label.id * Tsg_graph.Label.id -> bool) ->
  min_support:int ->
  Tsg_graph.Db.t ->
  ((Tsg_graph.Label.id * Tsg_graph.Label.id * Tsg_graph.Label.id)
  * ((pattern -> unit) -> unit))
  list
(** Like {!mine_tasks} but each closure is paired with its seed 1-edge
    [(from_label, edge_label, to_label)] ([from_label <= to_label] by
    id, the canonical orientation). Every pattern a task reports
    contains its seed edge, which is what lets an incremental re-mine
    skip roots no changed graph can touch. [mine_tasks] is
    [List.map snd] of this.

    [select] (default: every seed) is asked once per frequent seed, and
    the result is exactly the selected subsequence of the unselected
    call's. The seed scan counts every edge's seed without allocating
    per edge; only selected seeds get embeddings and a support set, so
    a run that selects a few roots does not pay for the rest. *)

val frequent_labels : min_support:int -> Tsg_graph.Db.t -> Tsg_graph.Label.id list
(** Node labels occurring in at least [min_support] distinct graphs. *)
