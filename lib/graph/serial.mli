(** Text serialization of graph databases in a gSpan-style line format.

    {v
    t # <graph-index>
    v <node> <node-label-name>
    e <node> <node> <edge-label-name>
    v}

    Labels are written by name so files are self-describing; reading interns
    names into caller-supplied tables. One writer and one line scanner serve
    both this format and the directed one below. *)

val db_to_string : node_labels:Label.t -> edge_labels:Label.t -> Db.t -> string

val save_db :
  string -> node_labels:Label.t -> edge_labels:Label.t -> Db.t -> unit
(** Write to a file path. *)

exception Parse_error of int * string
(** Line number (1-based) and message. A malformed graph (a missing or
    duplicate node, or a structure the graph constructor refuses) is
    reported at its [t] line. *)

val parse_db : node_labels:Label.t -> edge_labels:Label.t -> string -> Db.t
(** Parse the serialized form, interning label names into the given tables.
    @raise Parse_error on malformed input. *)

val load_db : node_labels:Label.t -> edge_labels:Label.t -> string -> Db.t
(** Read from a file path. *)

(** {1 Raw form}

    The unvalidated content of a database file, with source line numbers —
    what the lint passes ({!Tsg_check.Check_db}) analyze, so structurally
    broken files (dangling endpoints, self loops, duplicate edges) can
    still be read and diagnosed precisely. [parse_db_raw] never raises:
    lines it cannot make sense of are returned in [bad_lines]. *)

type raw_node = { v_index : int; v_label : string; v_line : int }

type raw_edge = { e_src : int; e_dst : int; e_label : string; e_line : int }

type raw_graph = {
  g_line : int;  (** line of the [t] header *)
  g_nodes : raw_node list;  (** in file order *)
  g_edges : raw_edge list;  (** in file order *)
}

type raw_db = {
  graphs : raw_graph list;
  bad_lines : (int * string) list;  (** line, problem description *)
}

val parse_db_raw : string -> raw_db

(** {1 Directed databases}

    Same line format with [a <src> <dst> <arc-label-name>] lines instead of
    [e] lines. *)

val digraphs_to_string :
  node_labels:Label.t -> arc_labels:Label.t -> Digraph.t list -> string

val save_digraphs :
  string -> node_labels:Label.t -> arc_labels:Label.t -> Digraph.t list -> unit

val parse_digraphs :
  node_labels:Label.t -> arc_labels:Label.t -> string -> Digraph.t list
(** @raise Parse_error on malformed input (including [e] lines: directed
    and undirected databases are distinct formats). *)

val load_digraphs :
  node_labels:Label.t -> arc_labels:Label.t -> string -> Digraph.t list
