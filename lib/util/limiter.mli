(** Load-limiting primitives for the serving path: a token-bucket rate
    limiter, a sliding-window circuit breaker, and a sliding-window
    latency quantile estimator.

    All three are driven by an injectable clock (seconds as [float]) so
    their timing behaviour is unit-testable without sleeping; the default
    clock is {!wall_clock}. Every operation is safe to call concurrently
    from multiple domains or threads (one mutex per value). Clocks are
    allowed to stall or step backwards (virtual clocks in tests, NTP
    slews in production): elapsed time is clamped at zero, never
    negative. *)

type clock = unit -> float
(** Current time in seconds. Only differences of readings matter, so any
    monotone-enough time base works. *)

val wall_clock : clock
(** [Unix.gettimeofday]. *)

(** {1 Token bucket}

    The classic rate limiter: a bucket holds up to [burst] tokens and
    refills continuously at [rate] tokens per second; each admitted
    request takes one token (or an explicit [cost]). Steady load is
    capped at [rate] requests per second while short bursts up to
    [burst] pass untouched. *)

module Token_bucket : sig
  type t

  val create : ?clock:clock -> rate:float -> burst:float -> unit -> t
  (** A full bucket. [rate] is tokens per second; [burst] the bucket
      capacity (clamped to at least 1.0).
      @raise Invalid_argument when [rate] is not finite and positive. *)

  val try_take : ?cost:float -> t -> bool
  (** Refill by elapsed time, then take [cost] (default 1.0) tokens if
      available. [false] means the caller should shed or wait. *)

  val retry_after_s : ?cost:float -> t -> float
  (** Seconds until [cost] tokens will be available — [0.] when they
      already are. Does not take anything. *)

  val available : t -> float
  (** Tokens currently in the bucket (after refill). *)
end

(** {1 Circuit breaker}

    Tracks the outcome of the last [window] operations. When at least
    [min_samples] outcomes are present and the failure fraction reaches
    [failure_ratio], the breaker {e opens}: {!allow} answers [false] for
    [cooldown_s] seconds. After the cooldown it goes {e half-open} and
    lets a single probe through; a successful probe closes it (and
    forgets the window), a failed one re-opens it for another
    cooldown. *)

module Breaker : sig
  type t

  type state = Closed | Open | Half_open

  val create :
    ?clock:clock ->
    ?window:int ->
    ?min_samples:int ->
    ?failure_ratio:float ->
    ?cooldown_s:float ->
    unit ->
    t
  (** Defaults: [window = 128] outcomes, [min_samples = 32],
      [failure_ratio = 0.5], [cooldown_s = 1.0]. *)

  val state : t -> state
  (** Current state; reading it performs the open→half-open transition
      when the cooldown has elapsed. *)

  val allow : t -> bool
  (** [true] when a request may proceed. While half-open only the first
      caller gets [true] (the probe) until its outcome is recorded. *)

  val record : t -> ok:bool -> unit
  (** Report the outcome of an allowed operation. *)

  val retry_after_s : t -> float
  (** Seconds until the breaker will next allow a request — [0.] unless
      open. *)
end

(** {1 Sliding latency window}

    A ring of the last [capacity] observations; quantiles are computed
    over that window only, so the estimate tracks current conditions
    rather than the whole process lifetime (unlike the cumulative
    {!Metrics} histograms). *)

module Window : sig
  type t

  val create : capacity:int -> t
  (** @raise Invalid_argument when [capacity < 1]. *)

  val observe : t -> float -> unit

  val count : t -> int
  (** Observations currently in the window (at most [capacity]). *)

  val total : t -> int
  (** Observations ever made. *)

  val percentile : t -> float -> float
  (** [percentile t q] for [q] in \[0,100\]: the [q]-th percentile of the
      windowed observations ({!Stats.percentile}, nearest-rank); [0.]
      when empty.
      @raise Invalid_argument when [q] is outside \[0,100\]. *)

  val max_value : t -> float
  (** Largest windowed observation; [0.] when empty. *)
end
