(** An indexed store of mined pattern sets, ready to serve queries
    without re-mining.

    The store holds the patterns of one or more {!Tsg_core.Pattern_io}
    pattern sets together with inverted indexes over
    {!Tsg_util.Bitset}:

    - a {b generalizing} index, label → patterns containing a node whose
      label is an {e ancestor} of that label (the taxonomy descendant
      closure is applied at build time, so a query-graph label hits every
      pattern that could match it) — the candidate prefilter for
      [contains] queries;
    - a {b mentioning} index, label → patterns containing a node whose
      label is a {e descendant} of that label — taxonomy-aware
      [by-label] lookup ("patterns about [l] or any specialization");
    - {b edge-count buckets} ([with_at_most_edges]) so [contains]
      candidates never have more edges than the query graph;
    - {b edge-label count buckets}: for each edge label [e] and count
      [k], the patterns with at most [k] edges labeled [e], so [contains]
      candidates never have more edges of a label than the query graph
      (sound because a match is injective on nodes, hence on edges, and
      edge labels compare exactly);
    - a {b support-sorted order} (and, when the originating database is
      available, an {!Tsg_core.Interest}-ratio order) for top-k queries.

    The indexes and orders are computed at build time. Two per-pattern
    values are kept in slots filled on first use instead: the compiled
    matching plan ({!plan}) and the reply text ({!reply_text}), so a
    store that is loaded and never queried (a reload pushed on every
    pipeline commit) does not pay for them. A store is safe to share
    across OCaml domains: two domains racing to fill one slot each write
    an equal immutable value, and a reader sees either an empty slot or
    a whole value. *)

type t

val build :
  taxonomy:Tsg_taxonomy.Taxonomy.t ->
  ?db:Tsg_graph.Db.t ->
  db_size:int ->
  Tsg_core.Pattern.t list ->
  t
(** [build ~taxonomy ~db_size patterns]. Every node label of every pattern
    must be a taxonomy label ([Invalid_argument] otherwise). When [db] —
    the database the patterns were mined from — is given, interest ratios
    are precomputed and {!by_interest} becomes available. *)

val load :
  taxonomy:Tsg_taxonomy.Taxonomy.t ->
  edge_labels:Tsg_graph.Label.t ->
  ?db:Tsg_graph.Db.t ->
  string list ->
  t
(** [load ~taxonomy ~edge_labels paths] reads each path and builds a
    store over the union via {!of_strings}; the recorded database size is
    the maximum across files.
    @raise Invalid_argument when a file mentions a node label that is not
    a taxonomy concept. *)

val of_strings :
  taxonomy:Tsg_taxonomy.Taxonomy.t ->
  edge_labels:Tsg_graph.Label.t ->
  ?db:Tsg_graph.Db.t ->
  (string * string) list ->
  t
(** [of_strings ~taxonomy ~edge_labels sources] builds a store from
    already-read [(path, contents)] pairs — the hot-reload path, where
    the bytes have been checksummed before parsing and must not be read
    again. [path] is used only for diagnostics.
    @raise Tsg_core.Pattern_io.Parse_error on malformed contents,
    [Invalid_argument] on out-of-taxonomy labels. *)

(** {1 Sharding} *)

val slice : t -> keep:(int -> bool) -> t
(** [slice t ~keep] is the sub-store of the patterns whose (local) id
    satisfies [keep], for serving one shard of a partitioned pattern set.
    Local ids are re-densified but {!external_id} still answers with the
    id the pattern had in the original unsliced store, and interest
    ratios are {e inherited} from [t] rather than recomputed — both are
    what make scatter-gather answers over a partition byte-identical to
    the unsliced engine. All indexes and orderings are rebuilt over the
    kept patterns (filtering preserves their relative order). Slicing a
    slice composes. *)

val external_id : t -> int -> int
(** The pattern's id in the original unsliced store — what {!slice}
    preserves and the serving layer prints. The identity on stores built
    directly. *)

(** {1 Access} *)

val size : t -> int

val db_size : t -> int

val taxonomy : t -> Tsg_taxonomy.Taxonomy.t

val pattern : t -> int -> Tsg_core.Pattern.t
(** Patterns are identified by dense ids [0 .. size-1], in load order. *)

val patterns : t -> Tsg_core.Pattern.t array
(** The backing array — do not mutate. *)

(** {1 Indexes}

    Returned bitsets have capacity {!size} and are shared — do not
    mutate. *)

val generalizing : t -> Tsg_graph.Label.id -> Tsg_util.Bitset.t
(** [generalizing t l]: patterns with a node label that is a (reflexive)
    ancestor of [l]. Empty for out-of-taxonomy labels. *)

val mentioning : t -> Tsg_graph.Label.id -> Tsg_util.Bitset.t
(** [mentioning t l]: patterns with a node label that is a (reflexive)
    descendant of [l]. Empty for out-of-taxonomy labels. *)

val with_at_most_edges : t -> int -> Tsg_util.Bitset.t
(** Patterns with at most the given number of edges. *)

val by_support : t -> int array
(** Pattern ids, highest support first (ids break ties). Shared. *)

val by_interest : t -> (int * float) array option
(** Pattern ids with their {!Tsg_core.Interest} ratios, highest first;
    [None] when the store was built without [db]. Shared. *)

val candidates : t -> Tsg_graph.Graph.t -> Tsg_util.Bitset.t
(** [candidates t g]: a fresh bitset of every pattern that could be
    generalized-subgraph-isomorphic into target [g] — a superset of the
    true answer (no false negatives), computed from the indexes alone:
    the union of {!generalizing} over [g]'s labels, cut down by edge-,
    per-edge-label- and node-count bounds and by requiring every distinct
    pattern label to generalize some label of [g]. Query labels outside
    the taxonomy contribute nothing (no pattern can match them); query
    edge labels no pattern uses constrain nothing. *)

(** {1 Per-pattern values filled on first use} *)

val plan : t -> int -> Tsg_iso.Matcher.compiled
(** [plan t i] is [Matcher.compile] of pattern [i]'s graph, compiled on
    the first call and shared after. *)

val reply_text : t -> int -> string
(** [reply_text t i] is [support <count>/<db_size> <pattern>], the tail
    every serve reply line for pattern [i] ends with (the pattern as
    {!Tsg_core.Pattern.to_string} over the taxonomy's label names),
    rendered on the first call and shared after. *)
