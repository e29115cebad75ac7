(** Availability and recovery accounting for the LegoSDN runtime.

    Two kinds of bookkeeping. {e Counters}: each is a {!stat} declared once
    below with its meaning; the runtime bumps it with {!bump} or {!bump_by}
    and readers take it with {!get}, each one array slot with no hashing
    and no allocation. {!all} enumerates them. {e Downtime}: how long each
    application was unusable in virtual time, which the availability
    experiment (E7) reads. *)

type t

val create : unit -> t

(** {1 Counters} *)

type stat
(** One counter. Every [t] holds all of them, starting at 0. *)

val bump : t -> stat -> unit
val bump_by : t -> stat -> int -> unit
val get : t -> stat -> int

val all : stat list
(** Every counter, in declaration order. *)

val events : stat
(** Events dispatched through the runtime's delivery pipeline. *)

val crashes : stat
(** Fail-stop application failures. *)

val hangs : stat
(** Application hangs (heart-beat loss). *)

val byzantine : stat
(** Outputs refused because they broke a network invariant. *)

val ignored : stat
(** Failures resolved by dropping the event (Absolute compromise). *)

val transformed : stat
(** Failures resolved by an equivalent event sequence or a policy
    recompile (Equivalence compromise). *)

val disabled : stat
(** Applications shut down by the No-Compromise policy. *)

val replayed : stat
(** Journal events re-applied after restoring a checkpoint. *)

val dropped_in_replay : stat
(** Journal events that failed again while being replayed. *)

val resource_breaches : stat
(** Transactions refused for exceeding the app's resource limits. *)

val quarantined : stat
(** Event signatures blacklisted after repeated failures (§5). *)

val suppressed : stat
(** Deliveries filtered out because their signature is quarantined. *)

val retransmits : stat
(** State-altering messages re-sent after a missing barrier ack. *)

val barrier_acks : stat
(** Barrier replies confirming delivery of a state-altering message. *)

val resyncs : stat
(** Reconnected switches whose tables were rebuilt from intended state. *)

val resynced_rules : stat
(** Rules replayed across all resynchronizations. *)

val unreachable : stat
(** Transactions refused because a target switch is unreachable. *)

val inv_hits : stat
(** Cached traces the incremental invariant checker reused. *)

val inv_misses : stat
(** Pairs the incremental checker had to trace from scratch. *)

val inv_invalidations : stat
(** Cached traces discarded because a visited switch changed. *)

val inv_recaptures : stat
(** Switch states re-frozen into the incremental checker's snapshot. *)

val inv_memoized : stat
(** Whole checks answered from the previous result (nothing changed). *)

val inv_evictions : stat
(** Cached traces dropped to enforce the trace-cache byte budget. *)

val checkpoints : stat
(** Application checkpoints taken (full or delta). *)

val ckpt_restores : stat
(** Snapshots materialized from the chunk store for a restore. *)

val ckpt_chunk_hits : stat
(** Chunks a delta checkpoint found already stored (deduplicated). *)

val ckpt_chunk_misses : stat
(** Chunks a delta checkpoint had to write. *)

val ckpt_bytes_deduped : stat
(** Snapshot bytes not written thanks to chunk reuse. *)

val ckpt_bytes_written : stat
(** Bytes checkpoints actually wrote (chunk data + manifest overhead). *)

val counter_cache_evictions : stat
(** Banked rule identities dropped by the counter-cache LRU bound. *)

val policy_compromises : stat
(** Equivalence compromises satisfied by recompiling the app's declared
    policy and installing the verified flow-mod diff. *)

val policy_rejected : stat
(** Policy-derived candidate rule-sets refused: they would have changed
    the forwarding relation or violated a network invariant. *)

val policy_reconciles : stat
(** Declared intent re-synchronised to the network after a healthy
    delivery changed the compiled tables. *)

(** {2 N-version voter counters}

    Divergence is observable as counters (and [Vote]/[Outvoted] spans),
    never as extra commands in the winning output. *)

val nv_events : stat
(** Events delivered through a full voting panel. *)

val nv_masked : stat
(** Elections in which at least one live variant's divergent output was
    discarded — a byzantine output masked before reaching the network. *)

val nv_outvoted : stat
(** Variant outputs that lost an election (per variant, per event). *)

val nv_variant_crashes : stat
(** Variants that crashed or hung on an event while the panel stayed
    live. *)

val nv_no_majority : stat
(** Elections with no strict majority; the first-arrival output won. *)

val nv_resyncs : stat
(** Replicas rebuilt from the majority snapshot (chunk-store shipped). *)

val nv_resync_bytes : stat
(** Logical snapshot bytes shipped across all replica re-syncs. *)

val nv_sheds : stat
(** Times the adaptive voter shed the panel to a single active variant. *)

val nv_grows : stat
(** Times the adaptive voter re-spun the full panel after a failure. *)

(** {2 By name}

    For tools that read counters by their names, such as the end-to-end
    benchmark. *)

type counter

type metric = Counter of counter

val find : t -> string -> metric option
val names : t -> string list
(** Every counter's name, in declaration order. *)

val value : counter -> int

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
(** The summary line the CLI prints with [--verbose]; its format is kept
    stable for scripts. *)
