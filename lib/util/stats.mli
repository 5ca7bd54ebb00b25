(** Small numeric summaries used when reporting dataset properties (Table 1)
    and experiment measurements. *)

val mean : float list -> float
(** Mean of a non-empty list; [nan] on the empty list. *)

val mean_int : int list -> float

val median : float list -> float

val stddev : float list -> float
(** Population standard deviation. *)

val minimum : float list -> float

val maximum : float list -> float

val percentile : float -> float list -> float
(** [percentile p xs] for [p] in [0,100], nearest-rank: the smallest
    element with at least [p]% of [xs] at or below it ([p = 0] gives the
    minimum); [nan] on the empty list. The one percentile over samples —
    {!Limiter.Window} and the load and benchmark drivers use it too;
    {!Metrics.percentile} bounds a histogram instead, which keeps no
    samples. *)

val percentile_sorted : float -> float array -> float
(** {!percentile} over an array already in ascending order, without
    copying it. *)

val round_to : int -> float -> float
(** [round_to d x] rounds [x] to [d] decimal places. *)
