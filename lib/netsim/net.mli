(** The live network: a topology instantiated with switch state, a data
    plane that propagates packets across it, and a notification queue
    feeding the controller.

    This is the "southbound" boundary: the controller calls {!send} and
    {!poll}; workloads call {!inject}; failure injection calls
    {!apply_fault}. Invariant checkers trace packets through a frozen
    copy of the switches' state (see [Invariants.Snapshot]) instead of
    this live one. *)

open Openflow

type fault =
  | Link_down of Topology.node * Topology.node
  | Link_up of Topology.node * Topology.node
  | Switch_down of Types.switch_id
  | Switch_up of Types.switch_id
      (** A switch coming back has an empty flow table — reboot semantics. *)
  | Port_down of Types.switch_id * Types.port_no
  | Port_up of Types.switch_id * Types.port_no
  | Channel_partition of Types.switch_id
      (** Cut the control channel silently: the switch keeps forwarding,
          but no control messages cross in either direction. *)
  | Channel_heal of Types.switch_id
  | Channel_loss of Types.switch_id * float
      (** Set the channel's symmetric loss probability (0. clears it). *)

type notification =
  | From_switch of Types.switch_id * Message.t
      (** Asynchronous switch-to-controller message: packet-in,
          flow-removed, port-status. *)
  | Switch_connected of Types.switch_id * Message.features
  | Switch_disconnected of Types.switch_id
  | Delivered of Topology.host * Packet.t
      (** A packet reached a host NIC (visible to workloads, not to the
          controller). *)

type stats = {
  mutable delivered : int;
  mutable delivered_to_dst : int;
      (** Copies delivered to the host the packet was addressed to — the
          useful-work subset of [delivered] (flood copies reaching other
          hosts count only in [delivered]). The fail-over oracle compares
          this across runs: it is invariant to flood-vs-unicast path
          differences, which [delivered] is not. *)
  mutable blackholed : int;  (** Copies dropped with no matching egress. *)
  mutable looped : int;  (** Copies killed by the hop limit. *)
  mutable packet_ins : int;
}

type t

val hop_limit : int
(** Inter-switch hops a copy may make before the data plane kills it as
    looping (counted in [looped]). The invariant snapshot's trace gives
    up at the same bound. *)

val create :
  ?channel:Channel.config ->
  ?channel_seed:int ->
  Clock.t ->
  Topology.t ->
  t
(** Instantiate switches for every switch node. A [Switch_connected]
    notification is queued per switch, modelling the initial handshake.
    Every switch gets its own control {!Channel.t}, seeded with
    [channel_seed + switch_id] so runs are deterministic and per-switch
    sequences are independent. The default channel is {!Channel.perfect},
    under which {!send} behaves exactly as a direct call would. *)

val topology : t -> Topology.t
val clock : t -> Clock.t
val switch : t -> Types.switch_id -> Sw.t
(** Raises [Not_found] for unknown ids. *)

val stats : t -> stats

val channel : t -> Types.switch_id -> Channel.t
(** The control channel to one switch. Raises [Not_found] for unknown
    ids. *)

val channel_totals : t -> Channel.stats
(** Fresh record summing the stats of every switch's channel. *)

val dups_suppressed : t -> int
(** Total state-altering retransmissions suppressed by switch-side xid
    dedup, summed over all switches. *)

val send : ?from:int -> t -> Types.switch_id -> Message.t -> Message.t list
(** Deliver a controller-to-switch message through its control channel;
    returns the synchronous replies. The channel may drop the message
    (returns [[]]), duplicate it, or delay it — a delayed copy is
    delivered on a later {!poll}/{!tick} and its replies surface as
    [From_switch] notifications. Data-plane side effects (packet-outs,
    buffered-packet releases) propagate through the network, possibly
    queueing notifications. Sending to a disconnected switch returns a
    single [Error] reply. [from] names the sending controller for the
    switch's master/slave role check (see {!Sw.set_master}). *)

val inject : t -> Topology.host -> Packet.t -> unit
(** A host transmits a packet into its access switch. Effects (deliveries,
    packet-ins) are queued as notifications. *)

val poll : t -> notification list
(** Drain queued notifications, oldest first. *)

val apply_fault : t -> fault -> unit
(** Change topology/switch state and queue the resulting port-status or
    connect/disconnect notifications. *)

val tick : t -> unit
(** Expire flow-table entries against the current clock, queueing
    flow-removed notifications. *)
