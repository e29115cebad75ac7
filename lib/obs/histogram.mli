(** Log-bucketed latency histograms.

    Buckets are geometric: bucket 0 holds every sample [<= min_bound];
    bucket [i > 0] holds samples in [(min_bound * factor^(i-1),
    min_bound * factor^i]]. With the default factor of 2 a reported
    quantile [q] is an upper bound on the true sample quantile and at most
    a factor-2 overestimate — the property the test suite checks. *)

type t

val create : ?min_bound:float -> ?factor:float -> unit -> t
(** Default [min_bound] 1e-9 (one virtual/real nanosecond), [factor] 2. *)

val observe : t -> float -> unit
(** Record one sample. Negative samples are clamped into bucket 0. *)

val count : t -> int

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0,1]: the upper bound of the bucket holding
    the [ceil (q * count)]-th smallest sample (at least the 1st). [0.] on
    an empty histogram. The bucket holding the sample also holds the true
    quantile, so [true_q <= quantile t q <= factor * true_q] for samples
    above [min_bound]. *)

val clear : t -> unit
val pp : Format.formatter -> t -> unit
(** One line: count, p50/p95/p99, max. *)
