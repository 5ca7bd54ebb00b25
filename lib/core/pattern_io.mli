(** Text serialization of mined pattern sets, for CLI pipelines
    (mine to a file, render or post-process later).

    {v
    p # <index> support <count>/<db-size>
    v <node> <node-label-name>
    e <node> <node> <edge-label-name>
    v}

    The support {e set} is not serialized — only its cardinality — so a
    reloaded pattern's [support_set] holds the right number of bits but
    synthetic ids ([0..count-1]).

    Label names are escaped on write: whitespace and ['%'] become [%XX]
    hex escapes and the empty name is spelled as a bare ["%"], so any
    interned name round-trips through the space-split line format.

    Node numbering is {e canonicalized} on write: each connected pattern is
    emitted with node ids in minimum-DFS-code order ({!Tsg_gspan.Min_code}),
    so two isomorphic patterns always serialize identically and the lint
    pass [PAT002] can hold saved artifacts to canonical form. *)

val canonical_form :
  edge_labels:Tsg_graph.Label.t -> Tsg_graph.Graph.t -> Tsg_graph.Graph.t
(** The pattern graph renumbered into serialization-canonical node order:
    minimum DFS code under edge-label ids ranked by {e name}, so the
    result depends only on content, never on an interning order.
    Disconnected and single-node graphs are returned unchanged. Writers
    ({!to_string}) and the [PAT002] lint check share this definition. *)

val body :
  node_labels:Tsg_graph.Label.t ->
  edge_labels:Tsg_graph.Label.t ->
  Pattern.t ->
  string
(** A pattern's [v] and [e] lines in {!canonical_form} node order: its
    text but the [p] header. *)

val of_bodies : db_size:int -> (int * string) list -> string
(** [(support count, body)] pairs under [p] headers numbered in order. *)

val to_string :
  node_labels:Tsg_graph.Label.t ->
  edge_labels:Tsg_graph.Label.t ->
  db_size:int ->
  Pattern.t list ->
  string
(** {!of_bodies} over each pattern's support count and {!body}. *)

val save :
  string ->
  node_labels:Tsg_graph.Label.t ->
  edge_labels:Tsg_graph.Label.t ->
  db_size:int ->
  Pattern.t list ->
  unit

exception Parse_error of Tsg_util.Diagnostic.t
(** Carries the offending file (when known), 1-based line, rule code
    [PAT009] and message. *)

val parse :
  ?file:string ->
  node_labels:Tsg_graph.Label.t ->
  edge_labels:Tsg_graph.Label.t ->
  string ->
  Pattern.t list * int
(** Patterns plus the recorded database size.
    @raise Parse_error on malformed input. *)

type located = {
  pattern : Pattern.t;
  header_line : int;  (** 1-based line of the [p] header *)
  recorded_db_size : int;  (** this header's denominator *)
}

val parse_located :
  ?file:string ->
  node_labels:Tsg_graph.Label.t ->
  edge_labels:Tsg_graph.Label.t ->
  string ->
  located list * int
(** As {!parse}, but each pattern carries the line number of its [p] header
    (the anchor the lint passes attach findings to) and the database size
    its own header recorded — the overall size is their maximum. *)

val load :
  node_labels:Tsg_graph.Label.t ->
  edge_labels:Tsg_graph.Label.t ->
  string ->
  Pattern.t list * int
(** @raise Parse_error (with the path as file) on malformed input. *)
