(** The Taxogram algorithm (paper Section 3): taxonomy-superimposed graph
    mining in three steps.

    + {b Relabel} every vertex with the most general ancestor of its label,
      producing the most-generalized database [D_mg] (originals kept).
    + {b Mine pattern classes}: run gSpan over [D_mg]; every frequent
      pattern of [D_mg] is the most general member of a pattern class, and
      its embeddings are turned into a taxonomy-projected occurrence index.
    + {b Enumerate specialized patterns} per class from the occurrence index
      alone — bitset intersections instead of isomorphism tests — while
      eliminating over-generalized patterns.

    The result is minimal (no over-generalized patterns, Lemma 8) and
    complete (all non-over-generalized patterns with sufficient support,
    Lemma 9).

    Beyond the paper (whose implementation was single-threaded Java), Steps
    2 and 3 run end-to-end on a work-stealing pool of OCaml domains
    ({!Tsg_util.Pool.Exec}): gSpan seed subtrees are batched into mining
    tasks, occurrence indices are built on the mining domains, and batches
    of finished classes stream straight into specialization tasks on the
    same pool. Before the fan-out the run freezes its label tables
    ({!Tsg_graph.Label.freeze}), handing every domain a read-only snapshot,
    and per-domain scratch arenas ({!Tsg_util.Arena}) keep the hot bitset
    loops allocation-free. A run is described by a {!Spec.t} and executed
    by the single entry point {!run}. *)

type config = {
  min_support : float;  (** the paper's theta, in [0, 1] *)
  max_edges : int option;  (** optional cap on pattern size *)
  enhancements : Specialize.enhancements;
}

val default_config : config
(** theta = 0.2 (the paper's usual setting), no size cap, all enhancements
    on. *)

val baseline_config : config
(** The paper's "baseline" comparator: identical pipeline, all Section 3
    efficiency enhancements off. *)

type result = {
  patterns : Pattern.t list;
      (** canonically sorted; empty under a [`Stream] sink *)
  class_count : int;  (** frequent pattern classes found in step 2 *)
  pattern_count : int;
  completed : bool;
      (** [false] when a time budget — or, under [supervised], a failing
          root — cut mining short *)
  diagnostics : Tsg_util.Diagnostic.t list;
      (** supervised-run quarantine records ([POOL001], [POOL002],
          [FLT001]); always empty without [~supervised:true] *)
  relabel_wall_seconds : float;  (** step 1 (sequential: wall = CPU) *)
  mining_wall_seconds : float;
      (** step 2: gSpan + occurrence-index building, wall-clock from the
          start of mining until the last mining task finished
          (specialization may still be running — the phases overlap by
          design). With one domain a mining task runs its Step-3 work
          inline, so this span covers Step 3 too and overlaps
          [enumerate_wall_seconds], as it does with more domains. *)
  mining_cpu_seconds : float;
      (** step 2 CPU time: seed discovery (or the whole level-wise
          mining) plus the mining tasks' own time over the reported
          roots. Step-3 work a mining task runs inline is not counted
          here, so with one domain [mining_cpu_seconds +.
          enumerate_cpu_seconds] stays within [total_wall_seconds]. *)
  enumerate_wall_seconds : float;
      (** step 3 wall-clock: first specialization task started to last one
          finished, across all domains (with one domain this span also
          holds the Step-2 work between classes) *)
  enumerate_cpu_seconds : float;
      (** step 3 CPU time summed across specialization tasks (over the
          reported roots, including any resumed from a checkpoint) *)
  total_wall_seconds : float;
  total_cpu_seconds : float;
      (** sum of the per-phase CPU times, each task counted once; with one
          domain this tracks [total_wall_seconds], with [d] domains it
          approaches [d] times the wall time when the run scales *)
  spec_stats : Specialize.stats;
  oi_entries : int;
      (** occurrence-index labels built across all classes (Lemma 4's
          space driver) *)
  oi_set_members : int;  (** total occurrence-set members across all OIs *)
  covered_graph_count : int;
      (** database graphs supporting at least one frequent class — the
          union of class support sets, merged per-domain at the join *)
  root_groups : Checkpoint.entry list;
      (** [result.patterns] partitioned by root: one entry per reported
          root, in root order, holding every pattern of that root's
          subtree, canonically sorted, with its seed (for [`Gspan]),
          coverage and statistics. These are the records a checkpoint
          stores; the incremental pipeline caches and saves them and
          re-mines only the roots a delta can touch. [[]] under a
          [`Stream] sink. *)
}

type sink = [ `Collect | `Stream of (Pattern.t -> unit) ]
(** Where mined patterns go.

    [`Collect] gathers them into [result.patterns], canonically sorted
    ({!Pattern.sort}), so the output is byte-identical whatever the domain
    count, batching, or schedule. Under a budget that expires mid-run, the
    reported set is a prefix of the canonical root-task sequence (a root —
    one gSpan seed subtree, or one level-wise class — is reported
    atomically or not at all); how long that prefix is depends on timing,
    but its content for a given length never does, and an already-expired
    budget deterministically reports nothing.

    [`Stream f] delivers each pattern to [f] as its class completes and
    leaves [result.patterns] empty; memory stays proportional to the work
    in flight rather than the output. With one domain, patterns arrive in
    the canonical sequential order; with several, arrival order is
    unspecified ([f] is never called concurrently — calls are serialized)
    and a budgeted run streams whatever completed before the cut. *)

type checkpoint_spec = {
  path : string;  (** checkpoint file, created/refreshed atomically *)
  every_s : float;
      (** minimum seconds between snapshots; [0.0] snapshots after every
          completed root *)
  corpus_seq : int64;
      (** corpus version the run mines: the WAL sequence number for a
          pipeline-maintained database, [0L] for a static corpus. Stored
          in the snapshot; resuming against a different sequence raises
          {!Checkpoint.Error} with [CKPT003] (the snapshot describes a
          corpus that no longer exists). *)
}
(** Periodic crash-safe snapshots of completed roots (see {!Checkpoint}).
    Only meaningful under the [`Collect] sink ([`Stream] raises
    [Invalid_argument]). When [path] already holds a snapshot of the same
    taxonomy, database, and configuration (fingerprint-checked), the run
    {e resumes}: stored roots are skipped and merged, and the final
    pattern set is byte-identical to an uninterrupted run. A mismatched
    or corrupt snapshot raises {!Checkpoint.Error}. The file is deleted
    when the run completes. *)

type class_miner = [ `Gspan | `Level_wise ]
(** Which general-purpose miner powers Step 2: gSpan (depth-first, the
    paper's choice) or the FSG-style level-wise miner — the paper notes any
    of them can be extended with occurrence indices, and the outputs are
    identical (property-tested). gSpan decomposes into per-seed subtree
    tasks and mines in parallel; the level-wise miner is inherently
    breadth-first, so it mines sequentially while indexing and
    specialization still fan out across the pool. It hands every class
    over before the first is indexed, at every domain count, so a
    level-wise run holds all its classes at once where a one-domain
    gSpan run holds one. *)

(** A complete description of one mining run: what to mine (config,
    budget, miner), where patterns go (sink), and how to execute
    (executor, supervision, checkpointing).

    Build one with {!Spec.collect} or {!Spec.stream} — both resolve every
    default at construction time, including the executor (so the domain
    count is decided exactly once, not re-read from the environment by the
    run) — then adjust it with record update syntax, and hand it to
    {!run}. One spec can drive many runs; runs sharing a spec share its
    executor. *)
module Spec : sig
  type nonrec t = {
    config : config;
    budget : Tsg_util.Timer.Budget.budget;
    class_miner : class_miner;
    exec : Tsg_util.Pool.Exec.t;  (** sized executor Steps 2 and 3 share *)
    checkpoint : checkpoint_spec option;
    supervised : bool;
    sink : sink;
    root_select : (int * int * int -> bool) option;
        (** mine only the gSpan roots whose seed 1-edge
            [(from_label, edge_label, to_label)] — labels of [D_mg],
            [from_label <= to_label] — satisfies the predicate. The
            selected roots produce exactly what a full run would produce
            for them (their subtrees are independent), which is how the
            incremental pipeline re-mines dirty roots. Seed discovery
            builds embeddings for the selected seeds only. [None] mines
            everything. {!run} raises [Invalid_argument] when combined
            with [`Level_wise] (no seed decomposition) or with
            checkpointing (snapshot prefixes index the full root
            sequence). *)
  }

  val collect :
    ?config:config ->
    ?budget:Tsg_util.Timer.Budget.budget ->
    ?class_miner:class_miner ->
    ?exec:Tsg_util.Pool.Exec.t ->
    ?domains:int ->
    ?checkpoint:checkpoint_spec ->
    ?supervised:bool ->
    ?root_select:(int * int * int -> bool) ->
    unit ->
    t
  (** Spec with the [`Collect] sink. [exec] (default a fresh executor)
      supplies the pool; [domains] is shorthand for
      [~exec:(Pool.Exec.create ~domains ())] and is ignored when [exec]
      is given. *)

  val stream :
    ?config:config ->
    ?budget:Tsg_util.Timer.Budget.budget ->
    ?class_miner:class_miner ->
    ?exec:Tsg_util.Pool.Exec.t ->
    ?domains:int ->
    ?supervised:bool ->
    (Pattern.t -> unit) ->
    t
  (** Spec with a [`Stream] sink (checkpointing is not offered — it
      requires [`Collect]). *)

  val domains : t -> int
  (** Domain count of the spec's executor. *)
end

val run : Spec.t -> Tsg_taxonomy.Taxonomy.t -> Tsg_graph.Db.t -> result
(** Mine the database against the taxonomy as the spec describes. Every
    node label of every graph must be a label of the taxonomy.

    Steps 2 and 3 run as tasks on the spec's executor at every domain
    count: a mining task takes a batch of roots (about four tasks per
    domain), indexes each class it mines, and forks the classes' Step-3
    work, one class per task with one domain and four with more. The
    run first freezes the taxonomy's label table so every domain reads an
    immutable snapshot. With one domain a fork runs before it returns
    ({!Tsg_util.Pool.fork}), so a gSpan run keeps one class alive at a
    time, the paper's Step 2 memory profile. The pattern set and
    supports are identical across domain counts (property-tested).

    When the spec's budget expires the run stops early with
    [completed = false]; see {!sink} for exactly what an early stop
    reports.

    A checkpoint spec snapshots completed roots to disk and resumes a
    previous snapshot found at the same path; see {!checkpoint_spec}.
    Raises [Invalid_argument] when combined with a [`Stream] sink.

    [supervised] turns task failures — injected faults
    ({!Tsg_util.Fault}), per-task deadline overruns, stray exceptions —
    into {!result.diagnostics} instead of letting them escape: tasks are
    retried and quarantined per {!Tsg_util.Pool.Exec.run_supervised} at
    every domain count (one included), and the reported set is still a
    prefix of the canonical root sequence, cut before the first root of
    the first failing task. Unsupervised, such an exception propagates
    to the caller (after snapshotting progress when checkpointing is
    on). *)

val fingerprint_params : config:config -> class_miner:class_miner -> string
(** The one text encoding of a mining configuration. It is hashed into
    checkpoint fingerprints and stored in snapshot headers
    ({!Checkpoint.t.params}), where tsg-pipe compares it to refuse a
    snapshot mined under another configuration. *)

val frequent_label_filter :
  Tsg_taxonomy.Taxonomy.t -> Tsg_graph.Db.t -> min_support:int ->
  (Tsg_graph.Label.id -> bool)
(** Enhancement (b)'s predicate: keep a taxonomy label iff nodes labeled
    with it {e or any descendant} occur in at least [min_support] distinct
    graphs (its generalized size-1 support). Upward-closed, so pruned
    occurrence indices stay connected. *)
