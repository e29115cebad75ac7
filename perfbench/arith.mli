(** The benchmark's own arithmetic: percentiles, span self time and
    delivery failures. Pure, so the tests can pin it down. *)

val percentile : float array -> float -> float option
(** [percentile sorted p] is the nearest-rank [p]-th percentile
    ([0 < p < 100]) of an ascending array, or [None] when fewer than ten
    samples lie beyond it — a tail that thin is not a measurement. *)

val median : float list -> float
(** Median of a non-empty list (mean of the middle pair when even). *)

(** One span on the shared monotonic clock.

    [id >= 0] marks a span recorded by the runtime's tracer; its
    [parent] is the enclosing runtime span's id, or [-1] for a root.
    Benchmark spans carry [id = -1]. A span whose parent is [-1] nests
    under the innermost span that contains it in time. *)
type span = { layer : string; t0 : float; t1 : float; id : int; parent : int }

val self_times : span list -> (string * float) list
(** Each layer's self time: its spans' durations minus the time their
    children cover, summed per layer, in first-seen order. *)

val failed_packets : packets:int -> delivered:int -> int
(** Failures of one input that injected [packets] packets while
    [delivered] copies reached their destinations:
    [max 0 (packets - delivered)]. A burst whose copies all arrive fails
    nothing; a single packet that never arrives fails once. *)
