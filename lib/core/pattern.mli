(** Mined patterns: a connected labeled graph together with its support in
    the database it was mined from (paper Section 2 definitions). *)

type t = {
  graph : Tsg_graph.Graph.t;
      (** node labels are taxonomy label ids; node ids are canonical
          positions (DFS indices of the pattern class) *)
  support_count : int;  (** number of database graphs with an occurrence *)
  support : float;  (** [support_count / |D|] *)
  support_set : Tsg_util.Bitset.t;  (** the paper's [GenSet], over graph ids *)
}

val make : db_size:int -> Tsg_graph.Graph.t -> Tsg_util.Bitset.t -> t

val key : t -> string
(** Canonical (minimum DFS code) key; equal iff the pattern graphs are
    isomorphic with identical labels. *)

val compare : t -> t -> int
(** Orders by canonical key; total, isomorphism-invariant. *)

val equal_sets : t list -> t list -> bool
(** Same pattern multiset (up to isomorphism) with the same support sets —
    the equivalence used to cross-check the mining algorithms. *)

val sort : t list -> t list
(** Ascending {!compare} order (stable), computing each key once. *)

val sort_groups : ('g * t list) list -> ('g * t list) list * t list
(** [sort_groups groups] is [(List.map (fun (g, ps) -> (g, sort ps)) groups,
    sort (List.concat_map snd groups))], computing each pattern's key once
    for both orders. *)

val edge_count : t -> int

val node_count : t -> int

val pp : names:Tsg_graph.Label.t -> Format.formatter -> t -> unit
(** Human-readable rendering using label names; edges print as [(u-v)] for
    edge-label 0 and [(u-v/l)] otherwise. *)

val to_string : names:Tsg_graph.Label.t -> t -> string
