(** The artifact publisher: from a pattern set to a served engine.

    Rendering is {e content-ordered}: patterns are sorted by the digits
    of their support count and ['/'] as bytes, then by their
    {!Tsg_core.Pattern_io.body} (label names, canonical node numbering),
    never by interned ids. Two processes with different interning
    histories — the long-lived incremental daemon and a from-scratch
    mine of the same corpus — therefore render
    byte-identical artifacts for equal pattern sets, which is the
    property the delta-equivalence tests pin down.

    Publishing is crash-safe ({!Tsg_util.Safe_io.write_atomic}, with the
    ["pipeline.publish"] failpoint in front) and {e verified} when
    pushed: after asking a running [tsg-serve] to reload, the checksum
    it acknowledges must equal the artifact's own; on any mismatch or
    failure the previous artifact bytes are restored and re-pushed, and
    the incident surfaces as a [PIPE002] diagnostic. *)

type entry
(** One pattern's support count and {!Tsg_core.Pattern_io.body}. *)

val entry :
  taxonomy:Tsg_taxonomy.Taxonomy.t ->
  edge_labels:Tsg_graph.Label.t ->
  Tsg_core.Pattern.t ->
  entry

val assemble : epoch_seq:int64 option -> db_size:int -> entry list -> string
(** The entries content-sorted and numbered, stamped when [epoch_seq] is
    given: the one assembly {!render} and {!Incremental.render} share. *)

val render :
  ?epoch_seq:int64 ->
  taxonomy:Tsg_taxonomy.Taxonomy.t ->
  edge_labels:Tsg_graph.Label.t ->
  db_size:int ->
  Tsg_core.Pattern.t list ->
  string
(** {!assemble} over each pattern's {!entry}: the pattern set in
    {!Tsg_core.Pattern_io} text form, content-sorted. With [epoch_seq]
    (the publisher's WAL watermark) the artifact is prefixed with a
    [# epoch] stamp ({!Tsg_query.Epoch.stamp}) so loaders can verify
    integrity and clusters can agree on a version;
    the payload after the stamp is identical to the unstamped
    rendering. *)

val write : string -> string -> unit
(** [write path content]: atomic artifact write behind the
    ["pipeline.publish"] failpoint. *)

val push :
  host:Unix.inet_addr ->
  port:int ->
  artifact:string ->
  previous:string option ->
  (int64, Tsg_util.Diagnostic.t) result
(** Ask the server at [host:port] to hot-reload [artifact] (the [reload]
    protocol verb) and verify the acknowledged checksum against the
    bytes on disk. [Ok checksum] on success. The reply is read with
    {!Tsg_query.Protocol.read_reply}; an error reply is classified by
    {!Tsg_query.Protocol.reply_error} and its code (e.g. [RELOAD]) is
    named in the diagnostic. On mismatch or refusal, rolls back:
    restores [previous] (the prior artifact bytes) when given, pushes
    again, and returns a [PIPE002] diagnostic either way.
    Connection-level failures return [PIPE002] without touching the
    artifact. *)
