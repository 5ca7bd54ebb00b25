(** Label taxonomies: is-a hierarchies over node labels.

    A taxonomy [T(V_T, E_T, L_T, lambda_T)] per the paper's Section 2: a
    labeled DAG where an edge from [u] to [v] states that [v] is an ancestor
    (generalization) of [u], and the labeling is one-to-one and onto — so
    taxonomy nodes {e are} labels, and this module works directly over
    {!Tsg_graph.Label.id}s. Ancestorship is reflexive and transitive.

    When the input DAG has several roots and some label can reach more than
    one of them, artificial root labels are introduced at build time so that
    every label has a unique most general ancestor (Section 3, Step 1). *)

type id = Tsg_graph.Label.id

type t

(** {1 Construction} *)

val build : names:string list -> is_a:(string * string) list -> t
(** [build ~names ~is_a] where [is_a] lists [(child, parent)] pairs by name.
    Artificial roots (named ["<root:k>"]) are added where needed.
    @raise Invalid_argument on unknown names, duplicate names, duplicate
    edges, self edges, or cycles. *)

val build_ids :
  labels:Tsg_graph.Label.t -> is_a:(id * id) list -> t
(** As {!build} but over an existing label table (which may intern extra
    labels for artificial roots; the table is not copied). *)

(** {1 Size and naming} *)

val label_count : t -> int
(** Including artificial roots. *)

val relationship_count : t -> int
(** Number of is-a edges, including edges to artificial roots. *)

val labels : t -> Tsg_graph.Label.t

val name : t -> id -> string

val id_of_name : t -> string -> id
(** @raise Not_found on unknown names. *)

val is_artificial : t -> id -> bool
(** True for roots synthesized at build time. *)

(** {1 Structure} *)

val parents : t -> id -> id list
(** Direct generalizations (empty for roots). *)

val declared : t -> string list * (string * string) list
(** What {!build} rebuilds [t] from: the original (non-artificial) concept
    names in id order, and the is-a pairs between them, children in id
    order. *)

val children : t -> id -> id list
(** Direct specializations. *)

val roots : t -> id list

val leaves : t -> id list

val is_root : t -> id -> bool

val is_leaf : t -> id -> bool

val topological_order : t -> id array
(** Every label appears after all of its ancestors. *)

(** {1 Ancestorship (reflexive)} *)

val is_ancestor : t -> anc:id -> id -> bool
(** [is_ancestor t ~anc l]: is [anc] an ancestor of [l]? Reflexive:
    [is_ancestor t ~anc:l l = true]. *)

val ancestors : t -> id -> id list
(** All ancestors including the label itself, ascending id order. *)

val strict_ancestors : t -> id -> id list

val ancestor_set : t -> id -> Tsg_util.Bitset.t
(** Shared bitset over label ids — do not mutate. Reflexive. *)

val descendants : t -> id -> id list
(** All descendants including the label itself. *)

val strict_descendants : t -> id -> id list

val descendant_set : t -> id -> Tsg_util.Bitset.t
(** Shared bitset — do not mutate. Reflexive. *)

val most_general : t -> id -> id
(** The unique most general ancestor (a root; unique thanks to artificial
    roots). Used by Taxogram's relabeling step. An array read: {!build}
    computes every label's once. *)

val avg_strict_ancestors : t -> float
(** The paper's [d]: average number of (strict) ancestors per label. *)

(** {1 Flat arrays}

    The ancestor and child relations as CSR int arrays, for kernels that
    walk them once per visit (the occurrence-index build walks every
    occurrence's ancestors): a plain loop over a slice, with no closure
    call or list cell per element. The bitsets above stay the structure
    for membership tests. *)

type flat = {
  anc_first : int array;
      (** label -> first index of its ancestors in [anc]; one element
          more than there are labels *)
  anc : id array;
      (** every label's reflexive ancestors, ascending id order (the
          order of {!ancestors}): label [l]'s are
          [anc.(anc_first.(l)) .. anc.(anc_first.(l + 1) - 1)] *)
  child_first : int array;
      (** label -> first index of its children in [child]; one element
          more than there are labels *)
  child : id array;
      (** every label's direct children, in {!children} order *)
}

val flat : t -> flat
(** The taxonomy's flat arrays, built on the first call (one pass over
    the ancestor bitsets and child lists: O(labels + ancestor pairs +
    is-a edges)) and cached in the taxonomy, so loading a taxonomy does
    not pay for them. Later calls, from any domain, return the same
    arrays; two domains racing on the first call may both build them,
    and both get the copy published first. The arrays are shared:
    read-only, do not mutate. *)

(** {1 Depth} *)

val depth : t -> id -> int
(** Length of the longest path from the label's root(s); roots have depth 0. *)

val max_depth : t -> int

val level_count : t -> int
(** [max_depth + 1], the paper's "number of levels". *)

(** {1 Pruned views} *)

val restrict : t -> keep:(id -> bool) -> id -> id list
(** [restrict t ~keep l] lists the children of [l] in the taxonomy where
    labels failing [keep] are removed and their kept descendants are
    reattached to the nearest kept ancestors (paper Section 3, enhancement
    (b): removing a label reconnects each kept child to the removed label's
    parents). Results are distinct, and never include [l] itself. *)

val pp : Format.formatter -> t -> unit
