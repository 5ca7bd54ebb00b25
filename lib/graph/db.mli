(** Graph databases: an indexed collection of graphs mined together.

    Carries the per-database statistics the paper reports in Table 1
    (graph count, average node/edge counts, distinct label count, average
    edge density). *)

type t

val of_list : Graph.t list -> t

val of_array : Graph.t array -> t
(** Takes ownership of the array; do not mutate afterwards. *)

val size : t -> int
(** Number of graphs ("DB Size" in Table 1). *)

val get : t -> int -> Graph.t

val iteri : (int -> Graph.t -> unit) -> t -> unit

val fold : ('a -> Graph.t -> 'a) -> 'a -> t -> 'a

val to_list : t -> Graph.t list

val map : (Graph.t -> Graph.t) -> t -> t

val avg_nodes : t -> float

val avg_edges : t -> float

val distinct_label_count : t -> int
(** Distinct node labels across all graphs ("Dist. Label Count"). *)

val distinct_labels : t -> Label.id list

val distinct_edge_labels : t -> Label.id list

val avg_edge_density : t -> float

val max_graph_nodes : t -> int

val max_graph_edges : t -> int

val support_count_to_threshold : t -> float -> int
(** [support_count_to_threshold db theta] is the minimum number of graphs a
    pattern must occur in to have support at least [theta]
    (i.e. [ceil (theta *. size db)], at least 1). *)

val threshold_of_size : int -> float -> int
(** [threshold_of_size n theta] is {!support_count_to_threshold} of a
    database of [n] graphs. *)

(** A Table 1 row. *)
type statistics = {
  graphs : int;
  avg_nodes : float;
  avg_edges : float;
  distinct_labels : int;
  avg_density : float;
}

val statistics : t -> statistics

val pp_statistics : Format.formatter -> statistics -> unit
