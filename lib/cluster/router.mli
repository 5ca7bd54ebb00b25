(** The cluster front: scatter-gather over shards with hedged,
    breaker-aware replica fan-out, epoch-pinned merges, health probing,
    two-phase rolling reload, and anti-entropy repair.

    {b Routing.} Every data query is fanned out to {e all} shards and
    the per-shard blocks are merged ({!Merge}) — with partitioned
    pattern slices that is the only plan whose answers are byte-identical
    to one unsharded engine. The consistent hash decides two other
    things: which {e slice} holds a pattern ([tsg-serve --shard i/n]
    agrees via {!Shard_map}), and which {e replica} of each shard is
    preferred for a given query — the shard key (the label-closure root
    for [by-label], the whole request line for [contains]/[top-k])
    rotates the replica order, so repeats of a query land on the same
    replica and hit its LRU cache.

    {b Epoch pinning.} The router tracks a cluster {e target epoch}
    ({!Tsg_query.Epoch}) — set by a successful two-phase reload and
    maintained by the scrubber as the newest epoch served by at least
    one up replica of {e every} shard. While a target is set, every
    scattered request carries an [at <epoch>] pin, so each shard block
    is either computed at that epoch or answered [STALE_EPOCH] (which
    fails over to the next replica, without a breaker penalty): a
    mixed-version merge cannot be assembled. When every replica of a
    shard is stale the client gets the stable [error STALE_EPOCH] —
    never a silent mixed answer. Unpinned (before the first scrub), the
    winning replicas' observed epochs feed {!Merge.merge}'s refusal as
    a last line of defense.

    {b Hedging and failover.} The preferred replica is asked first; if
    no reply lands within that replica's observed p95 latency
    ({!Tsg_util.Limiter.Window}, floored at [hedge_min_s]) the next
    replica is asked too and the first usable answer wins. Replies with
    a retryable code ([OVERLOADED], [UNAVAILABLE], [FAULT], [INTERNAL])
    and transport failures fail over to the next replica immediately;
    [DEADLINE] (and the other terminal codes) is returned as-is — the
    budget is gone, retrying would only double the load. Outcomes feed
    each replica's circuit breaker; open-breaker, probed-down, and
    scrubber-fenced replicas are deprioritized, never excluded (when
    everything is down, trying is the only probe there is). The whole
    fan-out is bounded by [deadline_s]; past it the client gets
    [error DEADLINE].

    {b Two-phase rolling reload.} The [reload] verb first sends
    [prepare] to {e every} replica: each stages and checksum-verifies
    the new artifact set without serving it, and reports the staged
    epoch. Any prepare failure — including replicas staging {e
    different} epochs — aborts the round ([abort] releases every staged
    swap) and nothing changes. Then one replica per shard commits and
    must probe healthy {e at the new epoch} within [reload_gate_s];
    once every shard serves the new epoch the router flips its target
    pin and commits the rest. A replica that fails this second wave is
    fenced ([RSY001]) for the scrubber to repair — clients never see
    the gap because the pin routes around it.

    {b Anti-entropy.} Every [scrub_interval_s] the probe thread runs
    {!scrub}: force-probes every replica, recomputes the target epoch,
    fences replicas serving any other epoch ([RSY001] — they take no
    data traffic), and, when [resync] is on, drives stragglers {e
    behind} the target through a [reload] ([RSY002] when that fails to
    reach the target; [EPO001] when no epoch is common to all shards).
    Probe and scrub cadence is jittered so many routers fronting one
    fleet spread out. *)

type config = {
  hedge_min_s : float;  (** hedge-delay floor, default 2ms *)
  hedge_pctl : float;  (** window percentile that fires the hedge, 95. *)
  deadline_s : float;  (** end-to-end per-request budget, default 2s *)
  probe_interval_s : float;  (** health-probe cadence, default 1s *)
  reload_gate_s : float;
      (** how long a reloaded/committed replica gets to probe healthy at
          the expected epoch, default 10s *)
  scrub_interval_s : float;  (** anti-entropy cadence, default 5s *)
  resync : bool;
      (** scrub drives stale replicas through a reload, default true —
          off, they stay fenced until an operator intervenes *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?taxonomy:Tsg_taxonomy.Taxonomy.t ->
  ?on_diagnostic:(Tsg_util.Diagnostic.t -> unit) ->
  metrics:Tsg_util.Metrics.t ->
  shards:Replica.t array array ->
  unit ->
  t
(** [shards.(i)] are the replicas of shard [i]; every shard needs at
    least one. [taxonomy] enables label-closure-root affinity for
    [by-label] (without it the label name itself is the key — still
    deterministic, just less cache-friendly). [on_diagnostic] receives
    the scrub/reload findings ([EPO001], [RSY001], [RSY002]); default
    prints to stderr. Metrics appear under [cluster.*].
    @raise Invalid_argument on an empty shard. *)

val config : t -> config

val shards : t -> Replica.t array array

val target_epoch : t -> Tsg_query.Epoch.t option
(** The epoch data requests are pinned to; [None] until the first
    successful two-phase reload or scrub. *)

val dispatch : t -> string -> [ `Reply of string | `Quit | `None ]
(** Answer one request line (possibly [id]-tagged): data queries
    scatter-gather under the epoch pin, [health] summarizes the cluster
    (including [degraded] and [epoch]), [epoch] reports the target pin,
    [stats] dumps the router registry, [reload] runs the two-phase
    rolling reload, blank/[#] lines are [`None]. Thread-safe —
    connections dispatch concurrently. *)

val rolling_reload : t -> (string, string) result
(** The two-phase reload described above. [Ok "replicas <n> epoch <e>"];
    [Error] aborts leave every replica serving its pre-reload artifact
    set. *)

val probe_all : t -> int
(** Probe every replica once; the number currently healthy. *)

val scrub : t -> int
(** One anti-entropy round (normally driven by the probe thread);
    returns the number of replicas left fenced. Skips (returning the
    current fenced count) while a reload holds the lock, and when the
    [scrub.probe] failpoint fires. *)

val start_probes : t -> stop:(unit -> bool) -> Thread.t
(** Background probing every ~[probe_interval_s] (jittered ±25%) until
    [stop ()]; runs {!scrub} every [scrub_interval_s]. *)

type listen_outcome = { connections : int; overloaded : int }

val listen :
  ?max_conns:int ->
  ?drain_s:float ->
  ?bind_addr:Unix.inet_addr ->
  ?max_line_bytes:int ->
  ?on_listen:(int -> unit) ->
  ?should_stop:(unit -> bool) ->
  t ->
  port:int ->
  unit ->
  listen_outcome
(** Serve {!dispatch} over TCP, mirroring {!Tsg_query.Serve.listen}:
    thread per connection, [port = 0] picks a free port ([on_listen]
    gets the bound one), beyond [max_conns] (default 256) clients are
    shed with a bare [OVERLOADED] line, [should_stop] polls ~4x/s and
    in-flight connections get [drain_s] (default 5s) to finish. Starts
    the probe/scrub thread for its lifetime. *)
