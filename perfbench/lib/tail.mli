(** Percentiles under the benchmark's tail rule.

    A tail percentile is only reported when at least {!min_beyond}
    samples lie beyond it, so a p90 needs 100 samples and a p95 needs
    200.  Percentiles use the nearest-rank definition: the [p]-quantile
    of [n] sorted samples is the sample at 1-based rank [ceil (p · n)]. *)

val min_beyond : int
(** 10. *)

val rank : n:int -> float -> int
(** 1-based nearest rank of the [p]-quantile among [n] samples.
    @raise Invalid_argument when [n < 1] or [p] is outside [(0, 1]]. *)

val beyond : n:int -> float -> int
(** Samples strictly above the [p]-quantile's rank: [n - rank ~n p]. *)

val tail_ok : n:int -> float -> bool
(** [beyond ~n p >= min_beyond]. *)

val min_samples : float -> int
(** Smallest sample count for which {!tail_ok} holds. *)

val percentile : float array -> float -> float
(** [percentile samples p] over unsorted samples (the array is not
    modified).  @raise Invalid_argument on an empty array. *)
