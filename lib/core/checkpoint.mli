(** Root-group snapshots: the one store for mined root groups.

    {!Taxogram.run} commits work at root granularity (one gSpan seed
    subtree, or one level-wise class), and its output under any early stop
    is a prefix of the canonical root sequence. A snapshot freezes such a
    prefix: the payload of every completed root (its seed, patterns,
    coverage, statistics) plus a fingerprint binding the snapshot to the
    taxonomy, database and configuration that produced it.

    Two writers use it. tsg-mine [--checkpoint] snapshots completed roots
    while it mines; a resumed run skips the stored roots, mines the rest,
    and merges, and the final pattern set is byte-identical to an
    uninterrupted run (property-tested). tsg-pipe's state snapshot
    ({!Tsg_pipeline.Incremental.save_state}) is a snapshot of a completed
    run whose [corpus_seq] is the WAL watermark the groups describe.

    Labels are stored as ids. The fingerprint pins tsg-mine's interning;
    tsg-pipe's is pinned by WAL replay, which interns in log order. A
    support set is stored sparse, as its member count, then its first
    member and the gap to each next one.

    The file format is versioned line-oriented text, written atomically
    ({!Tsg_util.Safe_io.write_atomic}) and closed by a CRC-32 trailer, so
    a reader can always tell a complete snapshot from a torn one.
    Corruption, truncation, and fingerprint mismatches surface as {!Error}
    carrying a [CKPT]-coded diagnostic, never as another exception. *)

exception Error of Tsg_util.Diagnostic.t
(** Rule codes: [CKPT001] unreadable/corrupt/truncated file, [CKPT002]
    fingerprint or shape mismatch with the present run, [CKPT003] stale
    snapshot — the corpus sequence number (the WAL position of an
    incrementally maintained database) moved since the snapshot was
    taken. *)

type entry = {
  root : int;  (** index in the canonical root sequence *)
  seed : (int * int * int) option;
      (** the gSpan root's frequent 1-edge seed [(from_label, edge_label,
          to_label)], labels of the relabeled database [D_mg],
          [from_label <= to_label]; [None] for a level-wise class *)
  classes : int;
  oi_entries : int;
  oi_set_members : int;
  enum_seconds : float;
  stats : Specialize.stats;
  covered : Tsg_util.Bitset.t;
      (** union of the root's class support sets; capacity = database
          size *)
  patterns : Pattern.t list;
}

type t = {
  fingerprint : int64;  (** {!fingerprint} of the producing run *)
  params : string;
      (** the mining configuration, as {!Taxogram.fingerprint_params}
          encodes it (one line) *)
  corpus_seq : int64;
      (** corpus version the snapshot describes: the WAL sequence number
          for a pipeline-maintained database ({!Tsg_pipeline.Wal}), [0L]
          for a static corpus *)
  db_size : int;
  roots_total : int;  (** [-1] when unknown up front (level-wise mining) *)
  entries : entry list;  (** completed-root prefix, ascending by [root] *)
}

val fingerprint :
  taxonomy:Tsg_taxonomy.Taxonomy.t ->
  db:Tsg_graph.Db.t ->
  params:string ->
  int64
(** Content hash of the run's inputs: taxonomy structure (names and
    parent lists in id order), every database graph (labels and edges in
    id order), and [params], an arbitrary string encoding the mining
    configuration. Two runs with equal fingerprints intern labels in the
    same order, so checkpoint payloads can store raw label ids. *)

val to_string : t -> string
(** The snapshot image, CRC trailer included.
    @raise Invalid_argument when [params] holds a newline. *)

val save : string -> t -> unit
(** Atomic write of {!to_string}; honors the ["checkpoint.save"] and
    ["safe_io.write"] failpoints. *)

val parse : file:string -> string -> t
(** Read a snapshot image; [file] names it in diagnostics. Honors the
    ["checkpoint.load"] failpoint.
    @raise Error ([CKPT001]) on a corrupt, torn or malformed image. *)

val header : file:string -> string -> t
(** {!parse} of the header alone, after the same CRC check: [entries] is
    [[]]. Honors the ["checkpoint.load"] failpoint. *)

val load : string -> t
(** {!parse} of a file.
    @raise Error ([CKPT001]) on unreadable, corrupt, or torn files. *)

val check :
  fingerprint:int64 ->
  corpus_seq:int64 ->
  db_size:int ->
  roots_total:int ->
  t ->
  unit
(** Validate a loaded checkpoint against the present run. The corpus
    sequence is compared first: a snapshot taken at corpus version [N]
    and resumed at [N+k] is stale regardless of anything else.
    @raise Error ([CKPT003]) when the corpus sequence moved;
    ([CKPT002]) when the fingerprint, database size, or root count
    disagree. *)
