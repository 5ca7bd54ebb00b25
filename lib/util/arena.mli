(** Per-domain scratch arenas for {!Bitset} temporaries.

    The Step-3 hot path (occurrence-set intersections during
    specialization) needs short-lived bitsets at a very high rate.
    Allocating them fresh taxes every domain at once — OCaml 5's minor
    collections are stop-the-world — so the
    arena recycles them instead: {!acquire} hands out a {e cleared}
    bitset from this domain's free list (or allocates on a miss),
    {!release} returns it for reuse.

    State lives in [Domain.DLS]: each domain owns its own arena, no call
    here ever takes a lock or touches another domain's memory, and the
    arena of a pool-spawned domain dies with it at the end of the run
    (see {!Tsg_util.Pool.Exec}). A bitset must be released on the same
    domain that acquired it; pool tasks never migrate mid-body, so this
    holds for free in task code.

    Discipline: a borrowed bitset is owned until released; never release
    twice, never use after release, never publish a borrowed bitset to
    another task (copy it out with [Bitset.copy] instead — that is the
    idiom for "keep this result": intersect into scratch, and pay the
    copy only for survivors). *)

val acquire : int -> Bitset.t
(** [acquire n] borrows a cleared bitset of capacity [n]. *)

val release : Bitset.t -> unit
(** Return a borrowed bitset to this domain's arena. *)

val with_bitset : int -> (Bitset.t -> 'a) -> 'a
(** [with_bitset n f] borrows, runs [f], and releases even on raise. The
    hot loops use explicit {!acquire}/{!release} instead to keep closure
    allocation off the path; this is the convenience form. *)

val drain : unit -> unit
(** Drop every cached bitset on this domain (the memory becomes garbage).
    Pool workers drain on exit; long-lived callers may drain between
    runs to release scratch memory early. *)

type stats = { cached : int; hits : int; misses : int }

val stats : unit -> stats
(** This domain's arena counters: bitsets currently cached, and the
    hit/miss split of every {!acquire} so far (a hit reused memory, a
    miss allocated). Test/diagnostic surface. *)

val reset_stats : unit -> unit
(** Zero the hit/miss counters (cached bitsets are kept). *)
