(** One backend replica as seen by the router: an endpoint, a pool of
    tagged protocol connections, a circuit breaker, a sliding latency
    window (the hedge trigger), a probed health flag, and the artifact
    epoch the replica last reported.

    Every call is tagged ([id <token> <request>] —
    {!Tsg_query.Protocol.split_tag}) so a pooled connection can never
    hand a stale reply to the wrong request: replies whose token does
    not match are discarded. A call that fails at the transport level
    (connect/read/write error, timeout) closes its connection instead
    of returning it to the pool. Thread-safe. *)

type t

val create :
  ?clock:Tsg_util.Limiter.clock ->
  ?io_timeout_s:float ->
  ?window:int ->
  ?breaker_window:int ->
  ?breaker_min_samples:int ->
  ?breaker_cooldown_s:float ->
  ?pool_limit:int ->
  ?backoff_base_s:float ->
  ?backoff_cap_s:float ->
  host:Unix.inet_addr ->
  port:int ->
  name:string ->
  unit ->
  t
(** [name] labels the replica in logs and errors (e.g. ["0/1"] for
    shard 0, replica 1). Defaults: [io_timeout_s = 2.0] (per-call cap
    when the caller gives no tighter one), latency [window = 256]
    samples, breaker over 32 outcomes with 8 minimum samples and 1s
    cooldown, at most [pool_limit = 8] idle pooled connections. A down
    replica is re-probed on an exponential backoff from
    [backoff_base_s] (0.1s) doubling up to [backoff_cap_s] (2s), with
    per-replica jitter so a fleet-wide restart does not draw every
    probe at once. *)

val name : t -> string

val endpoint : t -> Unix.inet_addr * int

val call : ?timeout_s:float -> t -> string -> (string, string) result
(** [call t request] sends one request line and returns the reply block
    with its tag stripped, framed by {!Tsg_query.Protocol.read_reply} —
    [ok <n>] listings arrive whole, [begin stats]/[end stats] blocks
    too. [Error msg] is a transport-level failure (protocol-level
    failures are [Ok "error ..."] blocks — the router classifies
    those). The read deadline is [timeout_s] (default
    [io_timeout_s]), enforced with [SO_RCVTIMEO]. *)

val probe : ?timeout_s:float -> ?force:bool -> t -> bool
(** One [health] round-trip (default timeout 1s); records the verdict
    in {!up} and the reported serving epoch in {!epoch}. While the
    replica is down, probes inside the current backoff window return
    [false] without touching the network — pass [~force:true] to probe
    anyway (reload and scrub do, so repair is never delayed by the
    backoff schedule). *)

val up : t -> bool
(** Last probe verdict; [true] before any probe. *)

val epoch : t -> Tsg_query.Epoch.t option
(** Serving epoch from the last successful probe; [None] before any
    probe or when the replica predates epoch stamping. *)

val set_epoch : t -> Tsg_query.Epoch.t option -> unit
(** Record an epoch learned outside {!probe} (e.g. from a two-phase
    commit acknowledgement). *)

val degraded : t -> bool
(** Fenced by the anti-entropy scrubber: the replica answers probes but
    serves the wrong epoch and resync has not (yet) fixed it. Degraded
    replicas take no data traffic. *)

val set_degraded : t -> bool -> unit

val window : t -> Tsg_util.Limiter.Window.t
(** Observed latencies of successful calls, seconds. *)

val breaker : t -> Tsg_util.Limiter.Breaker.t
(** Availability breaker; the router records call outcomes here. *)

val close : t -> unit
(** Drop all pooled connections. *)
