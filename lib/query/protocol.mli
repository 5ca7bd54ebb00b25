(** The newline-delimited text protocol served by [tsg-serve].

    One request per line:
    {v
    contains <l0,l1,...> [<u-v[/elabel],...>]   patterns occurring in the graph
    by-label <label>                            patterns mentioning the label or a descendant
    top-k <k> support|interest                  highest-scored patterns
    stats                                       metrics snapshot
    health                                      liveness probe (patterns, uptime, checksum, epoch, load)
    epoch                                       the serving artifact epoch ({!Epoch})
    reload                                      hot-swap the pattern artifact (TCP mode)
    prepare                                     stage + verify the on-disk artifact (two-phase reload)
    commit                                      atomically swap in the staged artifact
    abort                                       drop the staged artifact
    quit                                        stop serving
    v}

    A data query may additionally be pinned to an artifact epoch:
    [at <epoch> <request>] (after the [id] tag if both are present).
    A server whose serving epoch differs answers
    [error STALE_EPOCH serving <cur> wanted <req>] instead of computing
    a possibly-inconsistent answer — the mechanism the cluster router
    uses to make mixed-epoch merges impossible.

    Failures answer a single line [error <CODE> <message>] where [CODE]
    is one of the stable machine-readable {!error_code} spellings —
    clients should dispatch on the code and treat the message as free
    text. (Compat note: before the error-code scheme the code token was
    absent; clients that only check the [error] prefix keep working.)

    A [contains] graph lists its node labels by name (node [i] gets the
    [i]-th label) and its edges as [u-v] or [u-v/name] pairs; an edgeless
    graph omits the edge list or writes [-]. Blank lines and lines
    starting with [#] are ignored. Node labels must be taxonomy concepts;
    edge-label names are interned on sight (an unseen edge label simply
    matches no stored pattern). Label names must not contain whitespace,
    [,], [-] or [/] (true of every taxonomy file — see
    {!Tsg_taxonomy.Taxonomy_io}). *)

(** One request's verb and arguments, parametrized by how far its labels
    are resolved. *)
type ('graph, 'label) request =
  | Contains of 'graph
  | By_label of 'label
  | Top_k of int * [ `Support | `Interest ]
  | Stats
  | Health
  | Epoch_info
  | Reload
  | Prepare
  | Commit
  | Abort
  | Quit

type query = (Tsg_graph.Graph.t, Tsg_graph.Label.id) request
(** A request with its labels resolved: what a server executes. *)

type words = (string * string option, string) request
(** A request split into its verb and argument words, labels unresolved:
    [contains] carries its label list and optional edge list as written,
    [by-label] its label name. What a client or a router needs to know
    about a line without a taxonomy. *)

(** {1 Error codes}

    The stable catalog of machine-readable failure classes:
    - [Badreq] — malformed or unknown request;
    - [Oversized] — request line exceeded the size bound;
    - [Deadline] — execution blew the per-request deadline;
    - [Overloaded] — shed by admission control; the message carries
      [retry-after <seconds>];
    - [Unavailable] — the verb needs state this server lacks (top-k by
      interest without a database; [reload] when not enabled);
    - [Fault] — an injected failpoint fired ({!Tsg_util.Fault});
    - [Internal] — unexpected exception; the request died, the server
      did not;
    - [Reload_failed] — a [reload]/[prepare]/[commit] was attempted and
      rolled back;
    - [Stale_epoch] — the request was pinned ([at <epoch>]) to an epoch
      this server is not serving; the answer would have been
      version-inconsistent, so none was computed. *)

type error_code =
  | Badreq
  | Oversized
  | Deadline
  | Overloaded
  | Unavailable
  | Fault
  | Internal
  | Reload_failed
  | Stale_epoch

val code_string : error_code -> string
(** The wire spelling, e.g. [OVERLOADED]. *)

val code_of_string : string -> error_code option
(** The inverse of {!code_string}; [None] for a spelling outside the
    catalog. *)

val error_line : error_code -> string -> string
(** [error_line code msg] is ["error <CODE> <msg>"]. *)

exception Parse_error of string

val default_max_line_bytes : int
(** 65536 — the request-size bound {!parse} (and the serve loop's
    bounded reader) applies unless told otherwise. *)

(** {1 Request ids}

    Any request line may carry a client-chosen tag: [id <token> <request>]
    where [<token>] is a single whitespace-free word. The server prefixes
    the first line of the reply with the same [id <token> ] marker and,
    for data queries, flushes the reply immediately instead of batching
    until the next barrier verb — tags exist so pipelined and hedged
    clients (the cluster router) can match replies to requests on a
    shared connection and discard stale ones. Untagged requests behave
    exactly as before. *)

val split_tag : string -> string option * string
(** [split_tag line] is [(Some token, rest)] when [line] is
    [id <token> <rest>], and [(None, line)] otherwise (the line comes
    back trimmed in both cases). Never raises: a bare [id] with no
    request is returned untagged and left for {!parse} to reject. *)

val tag_reply : string option -> string -> string
(** [tag_reply (Some t) reply] prefixes [reply] with [id t ];
    [tag_reply None reply] is [reply]. Apply to the first line of a
    reply block only. *)

val split_at : string -> string option * string
(** [split_at body] is [(Some epoch, rest)] when [body] is
    [at <epoch> <rest>] (the epoch pin — apply {e after} {!split_tag}),
    and [(None, body)] otherwise. The epoch token is returned unparsed;
    {!Epoch.of_string} decides validity. *)

(** {1 Reading replies}

    The client half of the protocol, shared by everything that reads a
    server's answers — the cluster router's replicas, retry classes and
    merge, and [tsg-blast] — and by the serve loop counting its own
    errors. *)

val read_reply : in_channel -> string option * string
(** [read_reply ic] reads one reply block and returns its [id] tag (see
    {!split_tag}) and the block with the tag stripped, its lines joined
    by newlines without a trailing one: an [ok <n>] header together with
    its [n] result lines, a [begin stats] line through its [end stats]
    line, or any other single line.
    @raise End_of_file when the stream ends first. *)

val reply_error : string -> error_code option
(** [reply_error reply] is [Some code] when the first line of [reply],
    past any [id <token>] tag, is [error <CODE> ...] with a [CODE] in
    the catalog; [None] for every other reply. The inverse of
    {!error_line}, tagged or not. *)

(** {1 Parsing requests} *)

val split : string -> words option
(** [split line] splits a request line into its verb and argument
    words: [None] for blank lines and comments. Checks everything that
    needs no taxonomy — the verb, the argument count, the [top-k] count
    and order — so a router rejects a malformed line with the same
    message a server would.
    @raise Parse_error on unknown verbs and malformed arguments. *)

val unknown_command : string -> string
(** The {!Parse_error} message for an unknown verb,
    [unknown command "<verb>"]. *)

val parse :
  ?max_bytes:int ->
  taxonomy:Tsg_taxonomy.Taxonomy.t ->
  edge_labels:Tsg_graph.Label.t ->
  string ->
  query option
(** {!split} followed by label resolution: node labels must be taxonomy
    concepts, edge labels are interned in [edge_labels]. [None] for
    blank lines and comments.
    @raise Parse_error on malformed requests, unknown commands, node
    labels that are not taxonomy concepts, or lines longer than
    [max_bytes] (default {!default_max_line_bytes}). *)

val format_graph :
  names:Tsg_graph.Label.t ->
  edge_labels:Tsg_graph.Label.t ->
  Tsg_graph.Graph.t ->
  string
(** The [<labels> <edges>] spelling of a graph, parseable back by
    {!parse} as the argument of [contains]. *)
