(** Controller-level events delivered to SDN applications.

    These are the northbound face of the switch notifications: raw OpenFlow
    messages plus the link-level events the controller's topology service
    derives from them. *)

open Openflow

type t =
  | Switch_up of Types.switch_id * Message.features
  | Switch_down of Types.switch_id
  | Port_status of Types.switch_id * Message.port_status_reason * Message.port_desc
  | Link_up of link
  | Link_down of link
  | Packet_in of Types.switch_id * Message.packet_in
  | Flow_removed of Types.switch_id * Message.flow_removed
  | Stats_reply of Types.switch_id * Types.xid * Message.stats_reply
  | Tick of float  (** Periodic timer carrying the current virtual time. *)

and link = {
  src_switch : Types.switch_id;
  src_port : Types.port_no;
  dst_switch : Types.switch_id;
  dst_port : Types.port_no;
}

(** Subscription keys, one per constructor. *)
type kind =
  | K_switch_up
  | K_switch_down
  | K_port_status
  | K_link_up
  | K_link_down
  | K_packet_in
  | K_flow_removed
  | K_stats_reply
  | K_tick

val kind_of : t -> kind
val all_kinds : kind list
val kind_name : kind -> string

val switch_of : t -> Types.switch_id option
(** The switch an event concerns, when there is exactly one. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
