(** The query engine: containment, taxonomy-aware label lookup and top-k
    over a {!Store}, with an LRU result cache and {!Tsg_util.Metrics}
    instrumentation.

    [contains] answers "which stored patterns occur in this graph?" — the
    same generalized-subgraph-isomorphism question Taxogram's Step 3
    avoids per specialization, answered here per query: the store's
    inverted indexes prefilter candidates, generalized subgraph
    isomorphism ({!Tsg_iso.Gen_iso.spec}) decides the survivors through
    each pattern's stored plan ({!Store.plan}), and results are cached
    under the query graph's minimum DFS code so isomorphic repeats skip
    isomorphism entirely.

    All query functions are safe to call concurrently from multiple
    domains (the cache is mutex-protected; the taxonomy is immutable, and
    so is the store but for its first-use slots, which tolerate racing
    fills — see {!Store}). *)

type t

val create :
  ?cache_capacity:int ->
  ?epoch:Epoch.t ->
  metrics:Tsg_util.Metrics.t ->
  Store.t ->
  t
(** [cache_capacity] defaults to 1024 cached answers (each an [int
    array]); [0] disables caching. [epoch] (default {!Epoch.zero}) records which artifact
    version this engine was built from — the serve loop enforces
    [at <epoch>] request pins against it. *)

val store : t -> Store.t

val epoch : t -> Epoch.t
(** The artifact epoch this engine serves. *)

val with_epoch : t -> Epoch.t -> t
(** The same engine (store, cache and metrics shared) under a different
    epoch — how the serve reload path guarantees the recorded epoch
    matches the artifact bytes it just verified, whatever the builder
    did. *)

val metrics : t -> Tsg_util.Metrics.t

(** {1 Queries}

    Results are pattern ids into the store, ascending. *)

val contains : ?use_cache:bool -> t -> Tsg_graph.Graph.t -> int list
(** Every stored pattern generalized-subgraph-isomorphic into the given
    target graph. With [~use_cache:false] (default [true]) the min-DFS-code
    canonicalization and the result cache are skipped entirely — the
    degraded serving mode: identical results, no [cache.*] metric
    movement, no cache mutation. Counters: [contains.queries],
    [cache.hits], [cache.misses], [contains.candidates],
    [contains.iso_tests]; histogram: [latency.contains]. *)

val contains_brute : t -> Tsg_graph.Graph.t -> int list
(** As {!contains} but testing every stored pattern's graph with
    {!Tsg_iso.Gen_iso.subgraph_isomorphic} — no prefilter, no stored
    plans, no cache, no metrics. The test oracle. *)

val by_label : t -> Tsg_graph.Label.id -> int list
(** Patterns mentioning the label or any taxonomy descendant of it.
    Counter: [by_label.queries]; histogram: [latency.by_label]. *)

val top_k : t -> k:int -> [ `Support | `Interest ] -> (int * float) list
(** Highest-scored [k] patterns with their scores — support fraction or
    {!Tsg_core.Interest} ratio. Counter: [top_k.queries]; histogram:
    [latency.top_k].
    @raise Failure for [`Interest] when the store was built without its
    originating database. *)

val cache_key : Tsg_graph.Graph.t -> string
(** The cache key used by {!contains}: the canonical minimum DFS code for
    connected graphs (isomorphism-invariant), a structural rendering
    otherwise. *)

val cache_hit_rate : t -> float
