(** Fixed-capacity dense bitsets.

    Occurrence sets in Taxogram (Section 3, Step 2 of the paper) are
    implemented as bitsets so that the support of a specialized pattern is a
    single bitwise-and away from its parent's occurrence set (Lemma 7). *)

type t

val create : int -> t
(** [create n] is an empty bitset with capacity for members [0..n-1]. *)

val capacity : t -> int

val copy : t -> t

val set : t -> int -> unit

val unset : t -> int -> unit

val mem : t -> int -> bool

val cardinal : t -> int
(** Number of members: a branch-free population count per non-empty word,
    so the cost is per word, not per member. *)

val is_empty : t -> bool

val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is [true] iff every member of [a] is a member of [b]. *)

val inter : t -> t -> t
(** Fresh intersection; capacities must match. *)

val inter_into : dst:t -> t -> t -> unit
(** [inter_into ~dst a b] stores [a ∩ b] in [dst] (which may alias [a]). *)

val inter_cardinal : t -> t -> int
(** [inter_cardinal a b] is [cardinal (inter a b)], without allocating:
    one population count per word pair. *)

val intersects : t -> t -> bool
(** [intersects a b] is [not (is_empty (inter a b))], without allocating;
    it stops at the first word the two share. *)

val union : t -> t -> t

val union_into : dst:t -> t -> t -> unit

val diff : t -> t -> t

val iter : (int -> unit) -> t -> unit
(** Iterate members in increasing order. Empty words are skipped at once;
    a sparse word costs one step per member (the lowest set bit is peeled
    off and located with a de Bruijn multiply), a dense one (48 or more
    members) one test per bit position. {!fold}, {!exists}, {!for_all},
    {!to_list} and {!choose} share this cost model. *)

val project_into : dst:t -> int array -> t -> int
(** [project_into ~dst map s] overwrites [dst] with the image of [s]
    under [map] — [{map.(i) | i ∈ s}] — and returns its size. [map] must
    not decrease over the members of [s] (an occurrence -> graph map of
    an embedding list in graph-id order, say), so equal images come in
    runs: each member costs {!iter}'s word walk, one array read and one
    comparison with the image before it, and only a new image is set;
    the size is one {!cardinal} of [dst]. No closure is called per
    member. Writes only [dst].
    @raise Invalid_argument when an image lies outside [dst]'s capacity
    or [map] decreases between two members (an index of [s] beyond
    [map] raises too); [dst] is then partly written. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val exists : (int -> bool) -> t -> bool

val for_all : (int -> bool) -> t -> bool

val to_list : t -> int list

val of_list : int -> int list -> t
(** [of_list n members] is a bitset of capacity [n] holding [members]. *)

val full : int -> t
(** [full n] holds every member [0..n-1]. *)

val clear : t -> unit
(** Remove all members in place. *)

val choose : t -> int option
(** Smallest member, if any. *)

val pp : Format.formatter -> t -> unit
