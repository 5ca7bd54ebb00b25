(** The incremental mining engine: from committed deltas to a fresh
    pattern set without a full re-mine.

    The engine caches the mined pattern set {e per gSpan root} — one
    {!Tsg_core.Checkpoint.entry} per frequent 1-edge seed of the
    most-generalized database [D_mg]
    ({!Tsg_core.Taxogram.result.root_groups}). Every pattern in a
    root's subtree contains the root's seed edge, so a delta graph can
    only affect the roots whose seed 1-edge it contains (after
    relabeling to most-general): those roots are marked {e dirty} and
    re-mined with {!Tsg_core.Taxogram.Spec.root_select}; every other
    group is provably unchanged — additions that lack the seed edge
    cannot add embeddings, removals that lack it cannot take support
    away — and is reused, its support sets re-indexed onto the present
    database (a removal shifts the ids of later graphs).

    Two events invalidate the whole cache and force a full re-mine:
    the absolute support threshold [ceil (theta * db_size)] changing
    (every root's bar moved), and the absence or rejection of a state
    snapshot after a restart. Both are handled inside {!refresh}; the
    caller's loop is the same either way, and the resulting pattern set
    is byte-identical to a from-scratch mine of the present corpus
    (the headline property test).

    Between runs the engine persists to a {e state snapshot}: a
    {!Tsg_core.Checkpoint} of a completed run, written and read by the
    code tsg-mine's [--checkpoint] uses. Its [corpus_seq] is the
    watermark (the WAL sequence the groups describe), its header carries
    the mining configuration, and its entries are the groups, numbered
    in seed order, with label ids. The ids are safe to store because
    WAL replay interns edge labels in log order, so a restart rebuilds
    the same tables. An unusable snapshot (corrupt, configuration or
    taxonomy drift, watermark ahead of the log, incomplete, a label id
    the replayed tables lack) degrades to a full re-mine with a
    [PIPE003] warning, never an error. *)

type t

val create :
  corpus:Corpus.t ->
  config:Tsg_core.Taxogram.config ->
  exec:Tsg_util.Pool.Exec.t ->
  unit ->
  t
(** A fresh engine with an empty cache: the first {!refresh} is a full
    mine. [exec] is reused across re-mines. *)

val mined_seq : t -> int64
(** The corpus version the cached groups describe; [-1L] before the
    first mine (so an empty corpus at sequence [0L] still triggers
    one). *)

val dirty_count : t -> int
(** Roots currently marked dirty. *)

val mark_dirty : t -> Tsg_graph.Graph.t -> unit
(** Mark every root whose seed 1-edge the graph contains (after
    relabeling to most-general) dirty. Call with the graph each applied
    delta added or removed ({!Corpus.apply}'s [Ok] value). *)

type refresh_stats = {
  full : bool;  (** the cache was unusable; everything was re-mined *)
  roots_mined : int;  (** dirty (or, under [full], all) roots re-mined *)
  roots_cached : int;  (** clean groups reused untouched *)
  patterns : int;  (** pattern count after the refresh *)
  wall_s : float;
}

val refresh : t -> refresh_stats
(** Bring the cache up to the corpus head: re-mine the dirty roots (all
    of them, when the threshold moved or there is no cache), merge with
    the clean groups, clear the dirty set, and advance the watermark.
    Honors the ["pipeline.remine"] failpoint. A no-op (beyond the
    watermark) when nothing is dirty and a cache exists. *)

val patterns : t -> Tsg_core.Pattern.t list
(** The cached pattern set (all groups), unordered; {!render} for the
    canonical bytes. *)

val render : t -> string
(** The publishable artifact for the cached set against the current
    corpus size — the payload {!Publish.render} gives for {!patterns} —
    stamped with the engine's WAL watermark as its epoch sequence
    (unstamped before the first {!refresh}). Equal pattern sets render
    equal stamp {e payloads} whatever the watermark
    ({!Tsg_query.Epoch.payload}).

    Each group keeps its patterns' {!Publish.entry} text from its first
    render on, so a commit canonicalizes and prints only the roots it
    re-mined: a re-mined root, and every group after a full re-mine or
    {!load_state}, starts without it; a clean group keeps it through a
    re-index of its support sets (no graph or support count changes). *)

(** {1 State snapshots} *)

val save_state : t -> string -> unit
(** Atomically persist the cached groups as a complete snapshot
    ({!Tsg_core.Checkpoint.save}, so the ["checkpoint.save"] failpoint
    applies).
    @raise Invalid_argument before the first {!refresh} or
    {!load_state}. *)

val state_watermark : string -> int64 option
(** The watermark a snapshot image claims, read from its CRC-checked
    header without parsing the groups — the caller needs it {e before}
    replaying the WAL (records past the watermark must mark roots dirty
    as they are applied). [None] when the image is not a readable
    snapshot, which {!load_state} then refuses too. *)

val load_state : t -> string -> (unit, Tsg_util.Diagnostic.t) result
(** Adopt a snapshot image. Call after the corpus has been fully
    replayed: label ids are checked against the replayed tables, and
    the support sets index the database as it stood at the watermark.
    Honors the ["checkpoint.load"] failpoint. [Error] carries a
    [PIPE003] warning — corrupt image, configuration or taxonomy drift,
    watermark ahead of the corpus, fewer entries than roots, an unknown
    label id — and leaves the engine cacheless, so the next {!refresh}
    mines fully. *)
