(** The LegoSDN runtime: the re-designed controller (paper Figure 1, right
    side).

    Same northbound/southbound behaviour as {!Controller.Monolithic} — same
    services, same dispatch order — but every application runs in an
    AppVisor {!Sandbox}, every (application, event) delivery runs inside a
    transaction, and Crash-Pad screens and recovers failures. The
    controller itself never goes down because of an application: there is
    no [Crashed] state here, by construction. *)

open Controller

(** How each sandbox's checkpoint store is configured. *)
type ckpt_mode =
  | Ckpt_full  (** Full snapshot blobs, fixed every-k cadence. *)
  | Ckpt_delta
      (** Content-chunked delta snapshots, same fixed every-k cadence —
          identical scheduling to [Ckpt_full], cheaper writes. *)
  | Ckpt_delta_adaptive
      (** Delta snapshots with the adaptive cadence: checkpoint when the
          estimated journal-replay cost exceeds the estimated write cost,
          with [checkpoint_every] as the floor and [max (8k) 64] as the
          journal ceiling. *)

(** Controller-cluster settings. The runtime itself only carries them (the
    {!Cluster} library consumes them); [replicas = 1] means
    single-controller operation. *)
type cluster_config = {
  replicas : int;  (** Cluster size, 2f+1 for tolerating f kills. *)
  election_lo : float;
      (** Election-timeout range, virtual seconds: each replica draws its
          randomized-but-seeded timeout uniformly from [lo, hi). *)
  election_hi : float;
}

val default_cluster_config : cluster_config
(** 1 replica, timeouts drawn from [0.15, 0.3). *)

(** How {!step} turns polled events into Crash-Pad deliveries. Both modes
    dispatch in arrival order; the mode picks only how many events one
    dispatch takes.

    [Sequential] is the executable specification: one event at a time,
    each with its own barrier chase and (at k = 1) its own checkpoint.

    [Batched] dispatches the next [min max_batch budget] events of a poll
    round as one batch: flow-mods to fault-free switches are acknowledged
    by one barrier per switch per batch ({!Reliable.begin_batch}), and
    checkpoints amortize to one per sandbox per batch when the cadence
    permits. The two modes are observationally equivalent — same final
    flow tables, shadow intent, closed NetLog transactions (as
    {!Netlog.set_close_hook} hands them out) and semantic metrics on the
    same event stream — which [test/t_dispatch.ml] checks
    differentially. *)
type dispatch_mode = Sequential | Batched of { max_batch : int }

val default_sharded : dispatch_mode
(** [Batched {max_batch = 64}]. *)

(** Parameters of the trace-driven workload generator
    ([Workload.Trace_gen]). Carried here so scenario configs and
    reproducers can name them without the core depending on the
    generator; the runtime itself treats them as opaque. *)
type workload_config = {
  w_seed : int;  (** Generator RNG stream, independent of other seeds. *)
  w_rate : float;  (** Mean flow arrivals per virtual second at peak. *)
  w_alpha : float;
      (** Pareto shape of flow inter-arrivals; values ≤ 2 give the
          heavy-tailed bursts of real traffic. *)
  w_diurnal : float;  (** Load-curve modulation depth, 0 (flat) to 1. *)
  w_period : float;  (** Diurnal period in virtual seconds. *)
  w_churn : float;  (** Host leave(+rejoin) events per virtual second. *)
}

val default_workload_config : workload_config
(** seed 1, rate 20 flows/s, alpha 1.5, diurnal 0.5 over 60 s, no churn. *)

type config = {
  checkpoint_every : int;  (** k: checkpoint every k events (§5). *)
  checkpoint_mode : ckpt_mode;
  crashpad : Crashpad.config;
  reliable : Reliable.config;
      (** Southbound reliable-delivery settings: NetLog sends every
          command through this layer. *)
  cluster : cluster_config;
  dispatch : dispatch_mode;
  trace_cache_budget : int option;
      (** Byte budget for the incremental checker's trace cache
          ({!Invariants.Incremental.create}); [None] = unbounded. *)
  workload : workload_config option;
      (** Trace-driven workload parameters, when the scenario uses the
          generator instead of a fixed traffic list. *)
  nversion : Voter.config option;
      (** Every application runs as one {!Voter} unit. When set with
          [nv_replicas > 1], the unit is an N-version panel of variant
          sandboxes: outputs are held in the transaction until the
          election and only the majority command set is committed.
          Otherwise (and by default) it is a panel of one, which never
          votes: ordinary solo Crash-Pad dispatch. *)
}

val default_config : config
(** k = 1, full checkpoints, Crash-Pad defaults, reliable delivery on,
    single controller, sequential dispatch, unbounded trace cache, no
    generated workload. *)

type t

val create :
  ?config:config ->
  ?xid_base:int ->
  ?controller_id:int ->
  ?southbound_gate:(Openflow.Types.switch_id -> Openflow.Message.t -> bool) ->
  ?nv_variants:(string -> (App_sig.app * bool) list option) ->
  Netsim.Net.t ->
  App_sig.app list ->
  t
(** [nv_variants] customizes an N-version panel's composition (used only
    when {!config.nversion} is active): given an application name, return
    [Some specs] to run those variants — each paired with its
    {!Voter.create} re-syncability flag — instead of [nv_replicas]
    identical copies. The fuzzer uses it to seat a fault-injected variant
    on a panel.

    [xid_base] seeds the NetLog xid counter; a failover controller passes
    its predecessor's [Netlog.next_xid] so switch-side duplicate detection
    never mistakes its fresh commands for retransmissions.

    [controller_id] stamps every southbound send with this controller's
    identity so switches can enforce master/slave roles.

    [southbound_gate] interposes on the NetLog transport: a send for which
    the gate returns [false] is silently black-holed — the wire behaviour
    of a controller process that died mid-transaction. The cluster layer
    uses it to kill a leader at a precise point without raising through
    NetLog. *)

val step : t -> unit
(** Drain southbound notifications and dispatch the resulting events,
    one event or one batch at a time as {!config.dispatch} selects. A
    step spends {!Controller.Monolithic.storm_guard_events} dispatched
    events at most and sheds the rest. *)

val poll_events : t -> Event.t list
(** One poll round of {!step} without the dispatch: drain currently queued
    notifications, feed the reliable layer, and return the translated
    events. The caller is expected to {!dispatch_event} them (possibly
    after replicating them); polling again before doing so is safe but
    yields events that logically follow the undispatched ones. *)

val dispatch_event : t -> Event.t -> unit
(** Deliver one event through the {e sequential} pipeline regardless of
    {!config.dispatch} — this is the per-event specification both modes
    share, and the entry point the cluster layer uses to dispatch
    committed log entries one at a time (commit-gating interposes between
    observation and dispatch, so batching happens upstream of it). *)

val tick : t -> unit
(** Advance the reliable layer and deliver a [Tick] event. Under batched
    dispatch the [Tick] is a batch of its own. *)

val upgrade_controller : t -> unit
(** Simulate a controller upgrade (§3.4): platform state (services) is torn
    down and rebuilt, switches re-handshake — but the isolated applications
    keep their processes and state, unlike a monolithic restart. *)

val net : t -> Netsim.Net.t
val services : t -> Services.t

val set_context_services : t -> Services.t option -> unit
(** Override the service state applications see through their context
    ([Some s]), or restore the runtime's own ingesting services ([None]).
    The cluster layer installs a replica advanced by
    {!Controller.Services.observe} over the committed log so event
    dispatch is deterministic across leaders: the context an application
    consults depends only on the log prefix before the event, never on
    what the dispatching controller happened to have ingested since. *)

val sandboxes : t -> Sandbox.t list
(** Every sandbox — an N-version panel contributes all its variants. *)

val sandbox : t -> string -> Sandbox.t option
(** First sandbox with this name: a panel's primary variant. *)

val voters : t -> Voter.t list
(** Every application's unit, in application order; under solo dispatch
    each is a panel of one. *)

val metrics : t -> Metrics.t
val tickets : t -> Ticket.t list
val ticket_store : t -> Ticket.store
val netlog : t -> Netlog.t option
(** The NetLog instance every transaction runs in. Always [Some]: the
    option type stays until every caller drops its [None] arm. *)

val reliable : t -> Reliable.t option
(** The reliable-delivery layer NetLog sends through. Always [Some], for
    the same reason as {!netlog}. *)

val incremental : t -> Invariants.Incremental.t
(** The incremental invariant checker that screens every transaction's
    flow-mods. Its cache events are mirrored into {!metrics} and published
    on {!hub} as [Inv_cache] events. *)

(** {1 Observability} *)

val hub : t -> Obs.Hub.t
(** The runtime's event hub — the one subscription surface. Every
    dispatched event ([Dispatched]), invariant-cache action ([Inv_cache])
    and southbound delivery step ([Delivery]) is published here. *)

val tracer : t -> Obs.Tracer.t
(** The active tracer; {!Obs.Tracer.noop} until {!set_tracer}. *)

val set_tracer : t -> Obs.Tracer.t -> unit
(** Install a tracer: every event dispatch opens an [Event_root] span with
    nested per-stage spans (app delivery, detection, transaction
    commit/rollback, recovery), and delivery/cache activity is marked as
    instants. *)

val events_processed : t -> int
(** The {!Metrics.events} counter of {!metrics}. *)

val events_shed : t -> int
(** Notifications dropped by the broadcast-storm guard (see
    {!Controller.Monolithic.events_shed}). *)

val config : t -> config
