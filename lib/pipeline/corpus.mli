(** The live corpus: the graph database a WAL describes.

    A corpus is a deterministic fold over committed WAL records — two
    replays of the same log build identical databases {e and} identical
    label tables (edge-label names are interned in record order, and the
    log is never compacted, so the interning order survives restarts).
    Graphs keep the sequence number of the record that added them as
    their identity; [Remove] records target that number.

    A record that cannot be applied — unparseable graph, node label
    outside the taxonomy, unknown or already-removed remove target,
    non-monotonic sequence — is {e rejected}: it consumes its sequence
    number (so replay stays aligned with the log) but leaves the
    database untouched, and the rejection is reported as a [PIPE001]
    diagnostic. Rejection is itself deterministic, being a pure function
    of the folded state. *)

type t

val create : taxonomy:Tsg_taxonomy.Taxonomy.t -> unit -> t
(** An empty corpus over the taxonomy, with a fresh edge-label table. *)

val taxonomy : t -> Tsg_taxonomy.Taxonomy.t

val edge_labels : t -> Tsg_graph.Label.t

val seq : t -> int64
(** Sequence number of the last record applied (or rejected); [0L]
    initially. *)

val size : t -> int

val db : t -> Tsg_graph.Db.t
(** The current database, graphs in record (addition) order. Rebuilt on
    each call; removal shifts the graph ids of later additions, which is
    why nothing downstream may cache id-keyed state across deltas. *)

val members : ?at:int64 -> t -> int64 array
(** The sequence numbers of the records that added the graphs of the
    database as it stood at sequence [at] (default: now), in graph-id
    order: element [i] names graph [i] of that database. A support set
    mined at [at] indexes these graphs. An [at] before the last
    {!forget_removals} misses the graphs removed in between. *)

val forget_removals : t -> upto:int64 -> unit
(** Drop the record of removals at or before sequence [upto]: {!members}
    is then asked only about later sequences. Keeps a long-running
    corpus from holding one record per removal it ever applied. *)

val find : t -> int64 -> Tsg_graph.Graph.t option
(** The still-present graph added by record [seq], if any. *)

val apply : t -> Wal.record -> (Tsg_graph.Graph.t, Tsg_util.Diagnostic.t) result
(** Fold one committed record into the corpus. [Ok g] is the graph that
    was added or removed (the caller uses it to mark mining roots
    dirty); [Error d] is a [PIPE001] rejection — the record consumed its
    sequence number but changed nothing. *)

val to_serial : t -> string
(** The database in {!Tsg_graph.Serial} text form (labels by name), for
    [tsg-pipe export] and from-scratch comparison mines. *)
