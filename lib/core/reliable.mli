(** Reliable southbound delivery over a lossy control channel.

    The channel model ({!Netsim.Channel}) may drop, duplicate or delay any
    control message. This layer restores exactly-once semantics for
    state-altering messages the way a real controller must: every
    [Flow_mod]/[Packet_out]/[Port_mod] is chased by a [Barrier_request]
    whose reply acknowledges everything before it; a missing ack triggers
    retransmission with exponential backoff; the switch suppresses
    duplicate applications by xid ({!Netsim.Sw}); and a switch that
    exhausts the retry budget is declared {e degraded} so transactions
    touching it abort cleanly instead of half-committing.

    The layer also keeps a per-switch {e shadow table} — the rules the
    controller intends the switch to hold. When a switch reconnects after
    a reboot (empty table) or a healed partition, {!observe} replays the
    shadow delta so the data plane converges back to intended state
    without waiting for fresh traffic. *)

open Openflow

type config = {
  enabled : bool;
      (** When [false] the layer is a transparent pass-through: intent is
          still recorded (so divergence can be measured) but nothing is
          acked, retransmitted or resynchronized. *)
  base_timeout : float;
      (** Virtual seconds before the first retransmission; attempt [n]
          waits [base_timeout * 2^n]. *)
  max_retries : int;
      (** Retransmissions per message before the switch is declared
          degraded. *)
}

val default_config : config
(** Enabled; 50 ms base timeout; 8 retries. *)

val backoff_delay : config -> int -> float
(** [backoff_delay cfg n] is how long a message waits after its [n]-th
    transmission: [base_timeout * 2^n]. Exposed so tests and checkers can
    state the schedule without re-deriving it. *)

val barrier_xid_base : int
(** First xid of the barrier range (1_000_000_000). Barrier xids live in
    their own range so they can never collide with NetLog's transaction
    xids; exposed so tests can forge barrier replies. *)

type health = Healthy | Degraded

type t

val create :
  ?config:config ->
  ?controller_id:int ->
  ?metrics:Metrics.t ->
  ?notify:(Obs.Hub.delivery -> unit) ->
  Netsim.Net.t ->
  t
(** Retransmits, barrier acks, resyncs and resynced rules are counted in
    [metrics] (a fresh registry when not given), which {!retransmits},
    {!acks}, {!resyncs} and {!resynced_rules} read back. [notify] is invoked
    synchronously on every delivery-lifecycle step (sent, queued behind
    the head of line, retransmitted, acked, degraded, resynced) — the
    runtime routes it onto its {!Obs.Hub}. [controller_id] stamps every
    southbound send for the switches' master/slave role check
    ({!Netsim.Sw.set_master}). *)

val config : t -> config

val send : t -> Types.switch_id -> Message.t -> Message.t list
(** Transmit one controller-to-switch message; drop-in for [Net.send] (the
    intended use is [Netlog.create ~transport:(send t)]). State-altering
    messages are recorded in the shadow table and chased with a barrier;
    unacknowledged ones enter the retransmission queue. Delivery is FIFO
    per switch: while a message to a switch awaits its ack, later
    state-altering messages to the same switch are held back (returning
    no replies) so a retransmission can never overtake a logically later
    state change. Sends to a degraded switch are swallowed (intent
    recorded, nothing transmitted, no replies). *)

val tick : t -> unit
(** Retransmit every pending message whose backoff deadline has passed,
    against the network clock. Call once per scheduler step. *)

(** {1 Batched barrier coalescing}

    Between {!begin_batch} and {!end_batch}, a state-altering send whose
    channel is fault-free (no loss, no reply loss, no duplication, no
    delay, not partitioned) and whose delivery is verified on the switch
    skips its per-message barrier chase; {!end_batch} closes all such
    deferred messages with one barrier per touched switch (ascending
    switch order). On any other channel the send follows the exact
    sequential protocol — same bytes, same RNG draws, same pending-queue
    transitions — so batching is observationally invisible except for the
    number of barrier messages on fault-free channels. *)

val begin_batch : t -> unit
(** Enter batch mode. Idempotent; no effect if already in a batch. *)

val end_batch : t -> unit
(** Leave batch mode and settle every deferred message: one
    [Barrier_request] per touched switch acknowledges them all; any
    message the probe cannot confirm (switch vanished mid-batch) is
    handed to the ordinary retransmission queue. No-op outside a
    batch. *)

val observe : t -> Netsim.Net.notification -> unit
(** Feed every polled notification through here (before or after normal
    ingestion — the layer only reads). Barrier replies acknowledge pending
    messages; [Switch_connected] triggers resynchronization. *)

val health : t -> Types.switch_id -> health
val is_degraded : t -> Types.switch_id -> bool

val pending_count : t -> int
(** Messages awaiting acknowledgement (drain loops poll this). *)

val shadow : t -> Types.switch_id -> Netsim.Flow_table.t option
(** The intended rule set for one switch, if any intent was recorded. *)

val export_shadows : t -> (Types.switch_id * Netsim.Flow_entry.t list) list
(** All shadow tables as entry lists, sorted by switch id — the portable
    form replica state transfer ships to a standby controller. *)

val import_shadows :
  t -> (Types.switch_id * Netsim.Flow_entry.t list) list -> unit
(** Replace the shadow tables wholesale with a previously exported set. A
    fail-over controller calls this before serving traffic so resync and
    {!divergence} reason about the rules its predecessor installed. *)

val export_pending : t -> (Types.switch_id * Message.t) list
(** The un-acked send queue in FIFO order — commands whose wire delivery
    is still outstanding. Ships with replica state transfer: a command
    can be held back or awaiting retransmission long after the log entry
    that produced it was snapshotted, and a successor without the queue
    would lose it forever. *)

val import_pending : t -> (Types.switch_id * Message.t) list -> unit
(** Replace the un-acked queue with a previously exported one. Each
    message is re-injected un-sent with its original xid, so switch-side
    dedup suppresses replays of copies that did arrive. *)

val divergence : t -> int
(** Rules present in exactly one of (shadow, actual) summed over switches
    with recorded intent — 0 when the data plane matches controller
    intent. Compares (pattern, priority, actions); timeout-expired rules
    count as divergence, so measure with permanent rules. *)

(** {1 Lifetime counters} *)

val retransmits : t -> int
val acks : t -> int
val resyncs : t -> int
val resynced_rules : t -> int
val degraded_count : t -> int
(** Times any switch was declared degraded. *)
