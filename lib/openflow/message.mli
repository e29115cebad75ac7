(** OpenFlow 1.0 protocol messages (the subset the LegoSDN stack uses, which
    is everything a FloodLight-class controller exchanges with switches). *)

type flow_mod_command =
  | Add
  | Modify
  | Modify_strict
  | Delete
  | Delete_strict

type flow_mod = {
  pattern : Ofp_match.t;
  cookie : int64;
  command : flow_mod_command;
  idle_timeout : int;  (** Seconds; 0 means never. *)
  hard_timeout : int;  (** Seconds; 0 means never. *)
  priority : int;
  buffer_id : int option;
  out_port : Types.port_no option;
      (** Delete/Delete_strict filter: only remove flows that output here. *)
  notify_when_removed : bool;  (** OFPFF_SEND_FLOW_REM. *)
  actions : Action.t list;
}

val default_priority : int
(** OFP_DEFAULT_PRIORITY (32768). *)

val flow_add :
  ?cookie:int64 ->
  ?idle_timeout:int ->
  ?hard_timeout:int ->
  ?priority:int ->
  ?notify_when_removed:bool ->
  Ofp_match.t ->
  Action.t list ->
  flow_mod
(** An [Add] flow-mod with priority defaulting to 32768 (OFP_DEFAULT). *)

val flow_delete : ?strict:bool -> ?priority:int -> Ofp_match.t -> flow_mod

type packet_in_reason = No_match | Action_to_controller

type flow_removed_reason = Removed_idle | Removed_hard | Removed_delete

type port_desc = {
  port_no : Types.port_no;
  hw_addr : Types.mac;
  name : string;
  up : bool;
  no_flood : bool;  (** OFPPC_NO_FLOOD: excluded from FLOOD output (STP). *)
}

type features = {
  datapath_id : Types.switch_id;
  n_buffers : int;
  n_tables : int;
  ports : port_desc list;
}

type packet_in = {
  pi_buffer_id : int option;
  pi_in_port : Types.port_no;
  pi_reason : packet_in_reason;
  pi_packet : Packet.t;
}

type packet_out = {
  po_buffer_id : int option;
  po_in_port : Types.port_no option;
  po_actions : Action.t list;
  po_packet : Packet.t option;  (** Required when [po_buffer_id] is [None]. *)
}

type flow_removed = {
  fr_pattern : Ofp_match.t;
  fr_cookie : int64;
  fr_priority : int;
  fr_reason : flow_removed_reason;
  fr_duration : int;  (** Seconds installed. *)
  fr_idle_timeout : int;
  fr_packet_count : int;
  fr_byte_count : int;
}

type port_status_reason = Port_add | Port_delete | Port_modify

type stats_request =
  | Flow_stats_request of Ofp_match.t
  | Aggregate_stats_request of Ofp_match.t
  | Port_stats_request of Types.port_no option
  | Description_request

type flow_stat = {
  fs_pattern : Ofp_match.t;
  fs_priority : int;
  fs_cookie : int64;
  fs_duration : int;
  fs_idle_timeout : int;
  fs_hard_timeout : int;
  fs_packet_count : int;
  fs_byte_count : int;
  fs_actions : Action.t list;
}

type port_stat = {
  ps_port_no : Types.port_no;
  ps_rx_packets : int;
  ps_tx_packets : int;
  ps_rx_bytes : int;
  ps_tx_bytes : int;
  ps_rx_dropped : int;
  ps_tx_dropped : int;
}

type stats_reply =
  | Flow_stats_reply of flow_stat list
  | Aggregate_stats_reply of { packets : int; bytes : int; flows : int }
  | Port_stats_reply of port_stat list
  | Description_reply of string

type port_mod = {
  pm_port_no : Types.port_no;
  pm_no_flood : bool;  (** Desired OFPPC_NO_FLOOD setting. *)
}

type error_kind =
  | Bad_request
  | Bad_action
  | Flow_mod_failed
  | Port_mod_failed

type payload =
  | Hello
  | Echo_request of bytes
  | Echo_reply of bytes
  | Features_request
  | Features_reply of features
  | Packet_in of packet_in
  | Packet_out of packet_out
  | Flow_mod of flow_mod
  | Flow_removed of flow_removed
  | Port_status of port_status_reason * port_desc
  | Port_mod of port_mod
  | Stats_request of stats_request
  | Stats_reply of stats_reply
  | Barrier_request
  | Barrier_reply
  | Error of error_kind * string

type t = { xid : Types.xid; payload : payload }

val message : ?xid:Types.xid -> payload -> t
(** Wrap a payload with an xid (default 0). *)

val is_state_altering : payload -> bool
(** True for messages that change switch state (flow-mods, packet-outs and
    port-mods): the class NetLog must be able to invert or compensate. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val pp_payload : Format.formatter -> payload -> unit
