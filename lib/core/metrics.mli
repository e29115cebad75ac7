(** Availability and recovery accounting for the LegoSDN runtime.

    Virtual-time bookkeeping: how long was the controller up, how long was
    each application usable, how many failures were subverted and by which
    compromise. The availability experiment (E7) reads these.

    Internally this is a typed metric {e registry}: named counters, gauges
    and latency histograms, created on demand and enumerable for export.
    The original flat-counter API ({!incr_crash}, {!crashes}, …) survives
    as a compat view over pre-registered counters, so existing callers and
    the CLI output are unchanged; new instrumentation should obtain a
    handle once ({!counter}, {!gauge}, {!histogram}) and bump it on the
    hot path with no hashing. *)

type t

val create : unit -> t

(** {1 The registry} *)

type counter
(** A monotone integer. *)

type gauge
(** A last-write-wins float. *)

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of Obs.Histogram.t

val counter : t -> string -> counter
(** Find-or-register. Raises [Invalid_argument] if [name] is already
    registered as a different metric type. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> Obs.Histogram.t

val attach_histogram : t -> string -> Obs.Histogram.t -> unit
(** Register an externally owned histogram (e.g. a tracer's per-span-kind
    latency histogram) under [name], replacing any previous histogram of
    that name. Raises [Invalid_argument] on a name held by a counter or
    gauge. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val counter_name : counter -> string

val set : gauge -> float -> unit
val gauge_value : gauge -> float
val gauge_name : gauge -> string

val find : t -> string -> metric option
val names : t -> string list
(** In registration order. *)

val pp_registry : Format.formatter -> t -> unit
(** Every registered metric, one per line, in registration order. *)

(** {1 Legacy counters — compat view} *)

val incr_events : t -> unit
val incr_crash : t -> unit
val incr_hang : t -> unit
val incr_byzantine : t -> unit
val incr_ignored : t -> unit
val incr_transformed : t -> unit
val incr_disabled : t -> unit
val incr_replayed : t -> int -> unit
val incr_dropped_in_replay : t -> int -> unit
val incr_resource_breach : t -> unit
val incr_quarantined : t -> unit
val incr_suppressed : t -> unit
val incr_retransmits : t -> unit
val incr_barrier_acks : t -> unit
val incr_resyncs : t -> unit
val incr_resynced_rules : t -> int -> unit
val incr_unreachable : t -> unit

val incr_policy_compromise : t -> unit
(** An Equivalence compromise satisfied by recompiling the app's declared
    policy and installing the verified flow-mod diff. *)

val incr_policy_rejected : t -> unit
(** A policy-derived candidate rule-set refused: it would have changed the
    forwarding relation or violated a network invariant. *)

val incr_policy_reconcile : t -> unit
(** Declared intent re-synchronised to the network after a healthy
    delivery changed the compiled tables. *)

val policy_compromises : t -> int
val policy_rejected : t -> int
val policy_reconciles : t -> int

(** {2 N-version voter counters}

    Divergence is observable as typed metrics (and [Vote]/[Outvoted]
    spans), never as extra commands in the winning output. *)

val incr_nv_events : t -> unit
(** An event delivered through a full voting panel. *)

val incr_nv_masked : t -> unit
(** An election in which at least one live variant's divergent output was
    discarded — a byzantine output masked before reaching the network. *)

val incr_nv_outvoted : t -> unit
(** One variant's output lost an election (per variant, per event). *)

val incr_nv_variant_crashes : t -> unit
(** A variant crashed or hung on an event while the panel stayed live. *)

val incr_nv_no_majority : t -> unit
(** An election with no strict majority; the first-arrival output won. *)

val incr_nv_resyncs : t -> unit
(** A replica rebuilt from the majority snapshot (chunk-store shipped). *)

val add_nv_resync_bytes : t -> int -> unit
(** Logical snapshot bytes shipped across all replica re-syncs. *)

val incr_nv_sheds : t -> unit
(** Adaptive voter shed the panel down to a single active variant. *)

val incr_nv_grows : t -> unit
(** Adaptive voter re-spun the full panel after a failure. *)

val nv_events : t -> int
val nv_masked : t -> int
val nv_outvoted : t -> int
val nv_variant_crashes : t -> int
val nv_no_majority : t -> int
val nv_resyncs : t -> int
val nv_resync_bytes : t -> int
val nv_sheds : t -> int
val nv_grows : t -> int

val incr_inv_trace_hit : t -> unit
val incr_inv_trace_miss : t -> unit
val incr_inv_invalidation : t -> unit
val incr_inv_recapture : t -> unit
val incr_inv_memoized : t -> unit
val incr_inv_eviction : t -> unit

val set_inv_cache_bytes : t -> int -> unit
(** Update the [inv-trace-cache-bytes] gauge: the incremental checker's
    resident trace-cache footprint after an eviction. *)

val incr_checkpoint : t -> unit
val incr_ckpt_restore : t -> unit
val add_ckpt_chunk_hits : t -> int -> unit
val add_ckpt_chunk_misses : t -> int -> unit
val add_ckpt_bytes_deduped : t -> int -> unit
val add_ckpt_bytes_written : t -> int -> unit
val incr_counter_cache_eviction : t -> unit

val events : t -> int
val crashes : t -> int
val hangs : t -> int
val byzantine_blocked : t -> int
val ignored : t -> int
val transformed : t -> int
val disabled : t -> int
val replayed : t -> int
val dropped_in_replay : t -> int
val resource_breaches : t -> int

val quarantined : t -> int
(** Event signatures blacklisted after repeated failures (§5). *)

val suppressed : t -> int
(** Deliveries filtered out because their signature is quarantined. *)

val retransmits : t -> int
(** State-altering messages re-sent after a missing barrier ack. *)

val barrier_acks : t -> int
(** Barrier replies confirming delivery of a state-altering message. *)

val resyncs : t -> int
(** Reconnected switches whose tables were rebuilt from intended state. *)

val resynced_rules : t -> int
(** Rules replayed across all resynchronizations. *)

val unreachable : t -> int
(** Switches declared unreachable after the retry budget ran out. *)

val inv_trace_hits : t -> int
(** Cached traces the incremental invariant checker reused. *)

val inv_trace_misses : t -> int
(** Pairs the incremental checker had to trace from scratch. *)

val inv_invalidations : t -> int
(** Cached traces discarded because a visited switch changed. *)

val inv_recaptures : t -> int
(** Switch states re-frozen into the incremental checker's snapshot. *)

val inv_memoized_checks : t -> int
(** Whole checks answered from the previous result (nothing changed). *)

val inv_evictions : t -> int
(** Cached traces dropped to enforce the trace-cache byte budget. *)

val inv_cache_bytes : t -> int
(** Last value of the [inv-trace-cache-bytes] gauge. *)

val checkpoints : t -> int
(** Application checkpoints taken (full or delta). *)

val ckpt_restores : t -> int
(** Snapshots materialized from the chunk store for a restore. *)

val ckpt_chunk_hits : t -> int
(** Chunks a delta checkpoint found already stored (deduplicated). *)

val ckpt_chunk_misses : t -> int
(** Chunks a delta checkpoint had to write. *)

val ckpt_bytes_deduped : t -> int
(** Snapshot bytes not written thanks to chunk reuse. *)

val ckpt_bytes_written : t -> int
(** Bytes checkpoints actually wrote (chunk data + manifest overhead). *)

val counter_cache_evictions : t -> int
(** Banked rule identities dropped by the counter-cache LRU bound. *)

(** {1 Per-app downtime} *)

val add_app_downtime : t -> app:string -> float -> unit
(** Charge [seconds] of virtual unavailability to an application (detection
    delay + recovery work). *)

val mark_app_down_from : t -> app:string -> float -> unit
(** The app went down for good at this time (No-Compromise outcome). *)

val app_downtime : t -> app:string -> until:float -> float
(** Total downtime up to [until], including an open-ended outage. *)

val availability : t -> app:string -> until:float -> float
(** [1 - downtime/until]; 1.0 for an app never charged. *)

val pp : Format.formatter -> t -> unit
(** The historical summary line — format unchanged across the registry
    redesign (scripts and the fuzzer's metrics oracle parse it). *)
