(** A work-stealing pool of OCaml 5 domains with deterministic task
    identities.

    The pool exists so that tree-shaped search work — gSpan's DFS-code
    subtrees, per-class specialization, query batches — can fan out across
    domains while the {e result} of a run stays independent of the
    schedule: every task carries a deterministic id (its path in the
    fork tree), and {!Exec.run} returns results sorted by id, so callers
    can re-order, truncate to a canonical prefix, or merge without caring
    which domain computed what.

    Scheduling is lock-free work stealing: each domain owns a Chase–Lev
    deque, treats it as a LIFO stack (depth-first, cache-friendly), and
    when empty steals the {e oldest} task of a victim via a single CAS
    (breadth-first, which migrates the biggest remaining subtrees — the
    forks a stolen task makes land on the thief's own deque). There is
    no mutex on the scheduling path.

    Memory: tasks must not share mutable state unless they synchronize
    themselves; everything a task returns is published to the caller at
    the {!Exec.run} join. Per-domain scratch ({!Tsg_util.Arena}) lives
    in [Domain.DLS] — worker domains drain their arenas when a run ends,
    and the calling domain keeps its arena warm across runs.

    Worker domains are parked, not joined, between runs: they wait on a
    condition in one process-wide free list, and a run with [d] domains
    takes [d - 1] of them, spawning a new one only when the list is
    short (so a nested or concurrent run never waits for a busy one).
    Parked workers are joined at exit, so after a multi-domain run the
    process keeps domains alive: OCaml's [Unix.fork] refuses to run
    then. A worker records backtraces while it runs a job for a caller
    that does. *)

val default_domains : unit -> int
(** The domain count used when a caller does not choose one: the
    [TSG_DOMAINS] environment variable when it holds a positive integer,
    otherwise [Domain.recommended_domain_count ()] capped at 8 (the cap
    keeps small machines from oversubscription and mirrors the paper
    harness's biggest test box). Read once per {!Exec.create} — never on
    a hot path, and never re-read behind a live handle's back. *)

type 'a ctx
(** A task's handle to the running pool: identity plus the ability to
    fork. Valid only for the duration of the task's body. *)

val id : 'a ctx -> int list
(** The task's deterministic id: [[i]] for the [i]-th root task passed to
    {!Exec.run}, [parent @ [k]] for the [k]-th task forked by [parent]
    (0-based, in fork order). Ids are totally ordered by [compare] —
    lexicographic with prefixes first — and that order is the order
    {!Exec.run} returns results in. *)

val fork : 'a ctx -> ('a ctx -> 'a) -> unit
(** [fork ctx f] schedules [f] as a subtask of the current task. The
    subtask runs on this domain or on a thief; its result joins the
    others at {!Exec.run}'s return, under the forked id. With one domain
    there is no thief, so [f] runs before [fork] returns — under its own
    id, result slot, retries and quarantine, and off the parent's
    deadline clock. *)

(** {1 Supervision}

    {!Exec.run} is fail-fast: one poisoned task kills the whole run. A
    {e supervised} run instead gives every task a retry budget for
    transient failures and quarantines tasks that keep failing, so the
    run always completes — with partial results plus one structured
    {!Tsg_util.Diagnostic} per casualty — and a multi-hour mining job
    survives a flaky task. *)

exception Transient of string
(** Tasks raise this (or anything [policy.retry_on] accepts, e.g. an
    injected {!Fault.Injected}) to mark a failure worth retrying. *)

exception Deadline_exceeded of {
  task : int list;
  elapsed_s : float;
  deadline_s : float;
}
(** Raised by {!check_deadline} when the supervised policy's per-task
    deadline has passed. Not transient: a task that ran out of time once
    is quarantined, not retried. *)

type policy = {
  deadline_s : float option;
      (** cooperative per-task deadline enforced by {!check_deadline};
          [None] (the default) means none *)
  max_attempts : int;  (** total attempts per task, at least 1 *)
  backoff_s : float;
      (** pause before retry [k] is [backoff_s * 2^(k-1)], capped at
          [max_backoff_s] *)
  max_backoff_s : float;
  retry_on : exn -> bool;
      (** which failures are transient; the default accepts {!Transient}
          and {!Fault.Injected} only *)
}

val default_policy : policy
(** No deadline, 3 attempts, 1 ms initial backoff capped at 250 ms. *)

val check_deadline : 'a ctx -> unit
(** Poll point for long supervised tasks: raises {!Deadline_exceeded}
    when the current attempt has outlived [policy.deadline_s]. A no-op
    under {!Exec.run} or when the policy has no deadline. *)

(** {1 The execution surface}

    An {!Exec.t} is the one way work enters the pool. Creating one
    snapshots the effective domain count (so concurrent reconfiguration
    — e.g. a serve loop reloading while requests are in flight — cannot
    change the width of a handle mid-life), and every subsystem that
    runs parallel work ({!Tsg_core.Taxogram}, [Serve], the benches)
    takes or builds an [Exec.t] rather than a raw domain count. *)

module Exec : sig
  type t
  (** An execution handle: a snapshot of the domain count taken at
      {!create} time. Cheap; it owns no domain (each {!run} borrows
      parked workers and returns them before it does), so a handle may
      be reused or discarded freely. *)

  val create : ?domains:int -> unit -> t
  (** [create ()] snapshots {!default_domains} {e once}; [~domains] (at
      least 1, values below are clamped) overrides. The handle never
      re-reads [TSG_DOMAINS]. *)

  val domains : t -> int
  (** The snapshot: how many domains (including the calling one) each
      {!run} on this handle uses. *)

  val run : t -> ('a ctx -> 'a) list -> (int list * 'a) list
  (** [run exec tasks] executes the root tasks and everything they fork,
      across [domains exec] domains (the calling domain is one of them),
      and returns every task's [(id, result)] sorted by id. If any task
      raises, remaining tasks are abandoned (already-running ones
      finish), and the first exception observed is re-raised — with the
      raising task's original backtrace
      ([Printexc.raise_with_backtrace]) — after all domains have joined.
      An empty task list returns []. *)

  val run_supervised :
    t ->
    ?policy:policy ->
    ('a ctx -> 'a) list ->
    (int list * ('a, Diagnostic.t) result) list
  (** Like {!run}, but failures never escape: each task is retried per
      the policy (only while it has not yet forked — a failed attempt
      that already forked subtasks is quarantined immediately, since its
      children are already scheduled under their deterministic ids and a
      re-run would duplicate them), and a task that exhausts its
      attempts contributes [(id, Error diagnostic)] (rules [POOL001],
      [POOL002] for deadlines, [FLT001] for injected faults) instead of
      aborting the run. Results and quarantine records are sorted
      together by id. *)
end
