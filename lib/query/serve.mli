(** The [tsg-serve] request loop: reads the {!Protocol} line protocol
    from a channel, dispatches query batches across a pool of OCaml 5
    domains (shared-counter workers — query batches are flat, so they need
    none of {!Tsg_util.Pool}'s work stealing), and writes one response
    block per request, in request order.

    Consecutive data queries ([contains]/[by-label]/[top-k]) form a batch
    that is executed in parallel; every other verb is a barrier — the pending batch is flushed before they are handled,
    so [stats] reflects every earlier request. Responses:

    {v
    ok <n>                                  then n result lines:
    p <id> support <count>/<db-size> <pattern>     (contains, by-label)
    p <id> score <s> support <count>/<db-size> <pattern>   (top-k)
    ok health patterns <n> uptime <s> checksum <hex|-> degrade <lvl> inflight <n> domains <d> epoch <e>
    ok epoch <e>                                   (epoch)
    ok reload patterns <n> checksum <hex> epoch <e>        (reload)
    ok prepare epoch <e> patterns <n> checksum <hex>       (prepare)
    ok commit epoch <e> patterns <n>               (commit)
    ok abort                                       (abort)
    error <CODE> <message>                  malformed or failed request
    v}

    [stats] prints the metrics registry between [begin stats]/[end stats]
    markers, one machine-readable line per metric
    ({!Tsg_util.Metrics.render_machine}). Error codes are the stable
    {!Protocol.error_code} catalog.

    {b Request ids.} A request prefixed [id <token> ] (see
    {!Protocol.split_tag}) gets its reply's first line prefixed
    [id <token> ], and a {e tagged} data query is answered immediately
    instead of joining the batch awaiting the next barrier — the contract
    pipelined clients (the cluster router, [tsg-blast --router]) rely on
    to match replies to requests on a shared connection.

    The loop is hardened against misbehaving clients: request lines are
    read through a bounded buffer (an oversized line costs O(bound)
    memory and answers [OVERSIZED], it cannot balloon the heap), each
    request can carry a deadline, a request that raises — including an
    injected fault at the ["serve.request"] failpoint ({!Tsg_util.Fault})
    — answers with an [error] line instead of killing the loop, and a
    peer that disconnects mid-reply ([EPIPE]/reset) ends the loop cleanly
    rather than crashing the server. Each of these events increments a
    metrics counter ([serve.oversized], [serve.deadline_expired],
    [serve.injected_faults], [serve.disconnects]).

    When an {!Admission} gate is supplied, every data query passes
    through it before being batched: shed requests answer
    [error OVERLOADED retry-after <s>] immediately (in request order),
    admitted ones carry a ticket that is started at execution (where the
    CoDel queue-wait deadline may still expire them) and finished after,
    feeding the latency window and degradation ladder. At degradation
    level 1 and above, admitted [contains] queries run with
    [Engine.contains ~use_cache:false]. *)

type outcome = {
  requests : int;  (** total requests answered (including errors) *)
  errors : int;
  quit : bool;  (** [true] when the stream ended with [quit] *)
  disconnected : bool;
      (** [true] when the loop ended because the peer hung up mid-write *)
}

type limits = {
  max_line_bytes : int;
      (** longest accepted request line; longer lines answer with an
          error (default {!Protocol.default_max_line_bytes}) *)
  request_deadline_s : float option;
      (** per-request wall-clock deadline, measured from arrival; a
          request that misses it answers [error DEADLINE deadline
          exceeded]. [None] (the default) disables deadlines; a
          non-positive value expires every data query. *)
}

val default_limits : limits

(** {1 Artifact checksums} *)

val checksum_strings : string list -> int64
(** Order-sensitive FNV-1a64 fingerprint of a list of file contents
    ({!Epoch.contents_sum} — {!Tsg_util.Checksum.mix64} over per-file
    {!Tsg_util.Checksum.fnv1a64} hashes) — the artifact checksum reported
    by [health] and verified on hot reload. *)

val checksum_files : string list -> int64
(** {!checksum_strings} over the contents of the given paths.
    @raise Sys_error when a path cannot be read. *)

(** {1 Direct answers} *)

val answer : ?use_cache:bool -> Engine.t -> Protocol.query -> string
(** [answer engine q] is the exact reply block the serve loop would write
    for data query [q] (header line plus result lines, newline-separated,
    no trailing newline) — what the cluster layer's scatter-gather merge
    is checked against. [use_cache] defaults to [true].
    @raise Invalid_argument on barrier verbs ([stats], [health],
    [reload], [quit]), which have no engine-level answer. *)

(** {1 Bounded reads} *)

val read_bounded_line :
  in_channel -> max_bytes:int -> [ `Line of string | `Too_long ]
(** Read one [\n]-terminated line without trusting its length: past
    [max_bytes] the rest of the line is drained in bounded memory and the
    read reports [`Too_long]. EOF with pending bytes yields them as a
    final [`Line]; EOF with none raises [End_of_file]. Shared with the
    cluster router's front loop.
    @raise End_of_file at end of input. *)

(** {1 Bind addresses} *)

val parse_bind_addr : string -> (Unix.inet_addr, Tsg_util.Diagnostic.t) result
(** Parse an IP literal for {!listen}'s [bind_addr]. Invalid spellings
    answer a rule-[SRV001] diagnostic instead of raising. *)

(** {1 Serving generations} *)

type generation = {
  gen_engine : Engine.t;
  gen_labels : Tsg_graph.Label.Snapshot.t;
      (** the edge labels [gen_engine]'s store was built against; every
          connection parses against a private overlay table over them *)
  gen_checksum : int64 option;
      (** {!checksum_strings} of the artifact bytes, reported by [health] *)
}

val load :
  require_stamp:bool ->
  build:((string * string) list -> Engine.t * Tsg_graph.Label.t) ->
  string list ->
  (generation, Tsg_util.Diagnostic.t) result
(** The one way pattern artifacts become a generation — [tsg-serve]'s
    boot, [reload] and [prepare] all call it. Reads each path once, then
    re-reads to prove the bytes stable on disk (rule [SRV003] when a
    writer raced the load), verifies every {!Epoch} stamp against its
    payload ([EPO002]; with [require_stamp] an unstamped file fails the
    same way), and hands the [(path, contents)] pairs to [build] — which
    returns the engine plus the edge-label table its store was built
    against, and whose exceptions (parse, validation, [Failure]) answer
    [SRV002], as does an unreadable path. The engine is then stamped
    with {!Epoch.of_sources} of exactly the verified bytes and the
    checksum is their {!checksum_strings}. *)

(** {1 The staging slot}

    The live generation, at most one staged generation, and the lock
    that serializes loads, driven by a load thunk; {!run} serves the
    protocol's reload verbs from it. [prepare] runs the thunk and parks
    the result without serving it (honoring the ["reload.prepare"]
    failpoint; counter [serve.reload.prepares]); [commit] promotes the
    staged generation atomically (["reload.commit"] failpoint;
    [serve.reload.commits]); [abort] drops it ([serve.reload.aborts]);
    [reload] is the prepare step followed by the commit step under the
    same lock, and clears anything staged before it. Every promotion
    counts in [serve.reloads]. A failing load rolls back: the live
    generation keeps serving, the thunk's diagnostic goes to
    [on_diagnostic] and [serve.reload.rollbacks] is incremented. A load
    attempted while another holds the lock answers an error. Counters
    live in the first generation's metrics registry. *)

type slot

val slot :
  on_diagnostic:(Tsg_util.Diagnostic.t -> unit) ->
  load:(unit -> (generation, Tsg_util.Diagnostic.t) result) ->
  generation ->
  slot
(** A slot serving [generation] until the first promotion. *)

val live : slot -> generation

val staged : slot -> generation option
(** What [prepare] parked and no [commit], [abort] or [reload] has
    consumed yet. *)

(** {1 The request loop} *)

val run :
  exec:Tsg_util.Pool.Exec.t ->
  ?limits:limits ->
  ?admission:Admission.t ->
  ?client:Admission.client ->
  ?slot:slot ->
  generation ->
  in_channel ->
  out_channel ->
  outcome
(** [run ~exec gen ic oc] serves the requests read from [ic]. [exec]
    pins the batch-fill domain count for the whole loop (reported by the
    [health] verb and the [serve.domains] gauge). Parsing (which interns
    edge labels) stays on the calling domain, against a private overlay
    table over the served generation's label snapshot; only query
    execution fans out. A worker exception that is not handled
    per-request is re-raised on the caller with its original backtrace.
    [gen]'s engine's metrics registry receives the loop's counters.

    [admission] gates data queries (see above); [client] is the
    per-connection admission state (a fresh one is created when absent).

    Without [slot], every request executes against [gen], [health]
    reports its checksum (["-"] when absent), and the [reload],
    [prepare], [commit] and [abort] verbs answer [error UNAVAILABLE
    <verb> is not enabled]. With [slot], those verbs drive it, and
    {e every} request re-captures the slot's live generation — so a
    long-lived pooled connection (the cluster router keeps them open
    indefinitely) serves a reloaded artifact at its next request, and
    health, epoch and data answers on one connection never disagree
    about which artifact is live. Requests started before a swap finish
    on the generation they captured.

    {b Epoch pins.} A data query prefixed [at <epoch>] is answered only
    when the generation that would execute it serves exactly that epoch
    ({!Engine.epoch}); otherwise the reply is [error STALE_EPOCH serving
    <cur> wanted <req>] (counter [serve.stale_epoch]) and nothing is
    computed. The pin travels with the batch entry, so the check and the
    execution always see the same engine even across a concurrent
    hot swap. *)

(** {1 TCP mode} *)

type front = {
  connections : int;  (** accepted connections, shed ones included *)
  overloaded : int;  (** connections shed with [OVERLOADED] *)
}

val accept_loop :
  max_conns:int ->
  drain_s:float ->
  bind_addr:Unix.inet_addr ->
  on_listen:(int -> unit) ->
  should_stop:(unit -> bool) ->
  accepted:Tsg_util.Metrics.counter ->
  shed:Tsg_util.Metrics.counter ->
  port:int ->
  (in_channel -> out_channel -> unit) ->
  front
(** The TCP front shared by {!listen} and the cluster router: binds
    [bind_addr:port] ([port = 0] picks a free port; [on_listen] receives
    the bound one), then accepts until [should_stop] (polled about four
    times a second) returns [true]. Each connection gets [TCP_NODELAY]
    and its own system thread running the handler over the socket's
    channels; whatever the handler raises ends that connection only, and
    the loop flushes and closes the socket after it. Beyond [max_conns]
    concurrent connections a new client is shed instead: a detached
    thread writes a bare [OVERLOADED] line (code-less for compatibility
    — request-level sheds use [error OVERLOADED ...]), half-closes, and
    drains what the client already sent for up to 0.5s before closing,
    so the close cannot reset the line out of the client's receive
    queue. Every accept counts in [accepted], every shed in [shed]. Once
    stopped, the listening socket closes and in-flight connections get
    [drain_s] seconds to finish. [SIGPIPE] is ignored for the whole
    process, so a reset peer surfaces as a clean disconnect.
    @raise Unix.Unix_error when the socket cannot be bound. *)

type listen_outcome = {
  connections : int;  (** accepted connections, shed ones included *)
  overloaded : int;  (** connections shed with [OVERLOADED] *)
  aggregate : outcome;  (** summed over all served connections *)
}

val listen :
  ?exec:Tsg_util.Pool.Exec.t ->
  ?limits:limits ->
  ?max_conns:int ->
  ?drain_s:float ->
  ?bind_addr:Unix.inet_addr ->
  ?admission:Admission.t ->
  ?reload:(unit -> (generation, Tsg_util.Diagnostic.t) result) ->
  ?on_diagnostic:(Tsg_util.Diagnostic.t -> unit) ->
  ?on_listen:(int -> unit) ->
  ?should_stop:(unit -> bool) ->
  generation ->
  port:int ->
  unit ->
  listen_outcome
(** Serve the protocol over TCP: {!accept_loop} (default [bind_addr]
    [127.0.0.1], [max_conns] 64, [drain_s] 5, [should_stop] never) with
    {!run} as the per-connection handler. [exec] (default a one-domain
    executor — concurrency comes from connection threads) fixes the
    per-connection batch-fill domain count once for the listener's
    lifetime; every hot-reload generation serves under it. Sheds and
    accepts are counted in the engine metrics ([serve.connections],
    [serve.overloaded]).

    When [admission] is given it is shared across connections, each of
    which gets its own per-client token bucket.

    {b Hot reload.} [generation] serves first. With [reload] (typically
    {!load} over the served paths) the listener keeps a {!slot} driven
    by it, so the [reload], [prepare], [commit] and [abort] verbs work
    from any connection, and the next request on every connection —
    pooled ones included — sees each promoted generation. Rollback
    diagnostics go to [on_diagnostic] (default: stderr). The cluster
    router drives the two-phase verbs across replicas so a shard fleet
    changes epochs all-or-nothing. Without [reload] those verbs answer
    [error UNAVAILABLE]. *)
