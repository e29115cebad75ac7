(** A simulated OpenFlow 1.0 switch: one flow table, a set of ports with
    counters, a packet buffer store, and a message handler implementing the
    controller-facing protocol. *)

open Openflow

type port_state = {
  port_no : Types.port_no;
  hw_addr : Types.mac;
  mutable port_up : bool;
  mutable no_flood : bool;
      (** OFPPC_NO_FLOOD: set via [Port_mod]; FLOOD outputs skip the port. *)
  mutable rx_packets : int;
  mutable tx_packets : int;
  mutable rx_bytes : int;
  mutable tx_bytes : int;
  mutable rx_dropped : int;
  mutable tx_dropped : int;
}

type t = {
  id : Types.switch_id;
  table : Flow_table.t;
  mutable up : bool;
  ports : (int, port_state) Hashtbl.t;
  port_nos : Types.port_no list;  (** Every port, ascending; fixed at creation. *)
  buffers : (int, Packet.t * Types.port_no) Hashtbl.t;
  mutable next_buffer_id : int;
  seen_xids : (Types.xid, unit) Hashtbl.t;
      (** Dedup window for state-altering messages (bounded). *)
  seen_order : Types.xid Queue.t;
  mutable dups_suppressed : int;
      (** Retransmitted state-altering messages whose effects were
          suppressed by the dedup window. *)
  mutable cfg_gen : int;
      (** Port/liveness change counter: bumps whenever a port's up/down
          state or NO_FLOOD flag, or the switch's liveness, changes. It
          only grows, so with the table's {!Flow_table.generation} equal
          at two instants the switch forwards the same way at both: the
          incremental invariant checker keys its re-captures on the
          pair. *)
  mutable master : int option;
      (** Designated master controller id, if the cluster set one. *)
  mutable slave_rejected : int;
      (** State-altering messages rejected because the sender was not the
          designated master. *)
}

val create : id:Types.switch_id -> port_nos:Types.port_no list -> t
(** A switch with the given wired ports, all initially up. *)

val set_up : t -> up:bool -> unit
(** Change switch liveness, bumping [cfg_gen] on a real transition. The
    network layer uses this instead of writing the [up] field directly. *)

val reset_dedup : t -> unit
(** Forget the xid dedup window (reboot semantics: a rebooted switch has
    no memory of what it applied). *)

val set_master : t -> int option -> unit
(** Designate a master controller (or clear the role with [None]). While a
    master is set, state-altering messages attributed to any other
    controller are answered with an error and not applied — the OF 1.2
    master/slave role contract, reduced to its write-exclusion core. *)

val has_seen_xid : t -> Types.xid -> bool
(** Whether a state-altering message with this xid has been processed
    (and is still inside the dedup window). A barrier reply means "I
    processed everything you delivered before it"; this is the per-xid
    receive record that lets a controller turn that into a selective
    acknowledgement. *)

val port : t -> Types.port_no -> port_state option
val port_list : t -> port_state list
(** Ports ascending by number. *)

val set_port : t -> Types.port_no -> up:bool -> bool
(** Returns [false] if the port does not exist. *)

val egress :
  ports:Types.port_no list ->
  up:(Types.port_no -> bool) ->
  no_flood:(Types.port_no -> bool) ->
  in_port:Types.port_no ->
  Types.port_no ->
  Types.port_no list
(** The ports a copy staged for output port [out] leaves by, given the
    switch's [ports] (ascending) and their state; [up p] is false for a
    port the switch lacks. FLOOD: every up port except [in_port] and the
    NO_FLOOD ones; ALL: the same, NO_FLOOD ports included; IN_PORT:
    [in_port]; a physical port: itself, when it is up; CONTROLLER, LOCAL
    and NONE: no port. The one statement of these rules: the switch's
    forwarding and the invariant snapshot's trace both call it. *)

val features : t -> Message.features
val port_desc : port_state -> Message.port_desc

(** Result of pushing one packet through the pipeline. *)
type forward_result = {
  transmits : (Packet.t * Types.port_no) list;
      (** Concrete egress copies, reserved ports already expanded. *)
  punts : Message.packet_in list;
      (** Packet-ins raised (table miss or output-to-controller). *)
  matched : bool;  (** Whether some flow entry matched. *)
}

val empty_forward : forward_result

val process_packet :
  t -> now:float -> in_port:Types.port_no -> Packet.t -> forward_result
(** Run the packet through the flow table, updating entry and port rx
    counters. A table miss buffers the packet and raises a [No_match]
    packet-in carrying the buffer id. The switch holds the newest 256
    buffered packets, the [n_buffers] of its features; a release naming
    an older id finds nothing. *)

val account_tx : t -> Types.port_no -> Packet.t -> unit
(** Record an actual transmission out of a port (the network layer calls
    this once per copy it propagates). *)

val handle_message :
  ?from:int -> t -> now:float -> Message.t -> Message.t list * forward_result
(** Process one controller-to-switch message; returns the direct protocol
    replies (echo/barrier/stats/features/flow-removed/error, with the
    request's xid) and any data-plane transmissions it triggered
    (packet-out, or a flow-mod applied to a buffered packet). [from]
    identifies the sending controller for the master/slave role check;
    omitting it bypasses the check (single-controller deployments). *)

val expire_flows : t -> now:float -> Message.t list
(** Remove timed-out entries; returns the [Flow_removed] notifications for
    entries that asked for them. *)

val pp : Format.formatter -> t -> unit
