(** Pure scatter-gather reply merging — no sockets, unit-testable.

    Each shard answers a data query with a reply block ([ok <n>] plus
    [n] result lines, or a single [error ...] line). Because shard
    slices print {e global} pattern ids ({!Tsg_query.Store.external_id})
    and inherit interest ratios from the unsliced store, merging is just
    re-sorting the union under the single-node order — the merged block
    is byte-identical to what one unsharded engine would answer. *)

type verb =
  | List  (** [contains] / [by-label]: every match, ascending id *)
  | Top_k of int * [ `Support | `Interest ]
      (** best [k] by (support desc, id asc) or (score desc, id asc) *)

val verb_of_query : (_, _) Tsg_query.Protocol.request -> verb option
(** The merge plan of a data query, labels resolved or not (the router
    plans from {!Tsg_query.Protocol.split}); [None] for barrier verbs. *)

val merge : ?epochs:string option list -> verb -> string list -> string
(** [merge verb blocks] combines one reply block per shard (in shard
    order) into the single-node reply. If any shard answered an error
    block ({!Tsg_query.Protocol.reply_error}), that error (the first, in
    shard order) is the merged answer — a partial listing would be
    silently wrong. Duplicate global ids (overlapping slices) keep their
    first occurrence.

    [epochs] (parallel to [blocks], [None] for a shard with no epoch
    pin) is the mixed-merge refusal: two {e different} [Some] epochs
    answer [error STALE_EPOCH merge refused ...] before any row-level
    work — blocks computed from different artifact versions must never
    combine into one reply, whatever upstream bug produced them.
    @raise Failure on a block that is neither [ok <n> ...] nor an error
    line. *)
