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
  | Tick of float

and link = {
  src_switch : Types.switch_id;
  src_port : Types.port_no;
  dst_switch : Types.switch_id;
  dst_port : Types.port_no;
}

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

let kind_of = function
  | Switch_up _ -> K_switch_up
  | Switch_down _ -> K_switch_down
  | Port_status _ -> K_port_status
  | Link_up _ -> K_link_up
  | Link_down _ -> K_link_down
  | Packet_in _ -> K_packet_in
  | Flow_removed _ -> K_flow_removed
  | Stats_reply _ -> K_stats_reply
  | Tick _ -> K_tick

let all_kinds =
  [
    K_switch_up;
    K_switch_down;
    K_port_status;
    K_link_up;
    K_link_down;
    K_packet_in;
    K_flow_removed;
    K_stats_reply;
    K_tick;
  ]

let kind_name = function
  | K_switch_up -> "switch_up"
  | K_switch_down -> "switch_down"
  | K_port_status -> "port_status"
  | K_link_up -> "link_up"
  | K_link_down -> "link_down"
  | K_packet_in -> "packet_in"
  | K_flow_removed -> "flow_removed"
  | K_stats_reply -> "stats_reply"
  | K_tick -> "tick"

let switch_of = function
  | Switch_up (sid, _)
  | Switch_down sid
  | Port_status (sid, _, _)
  | Packet_in (sid, _)
  | Flow_removed (sid, _)
  | Stats_reply (sid, _, _) ->
      Some sid
  | Link_up _ | Link_down _ | Tick _ -> None

let equal a b = a = b

let pp fmt = function
  | Switch_up (sid, f) ->
      Format.fprintf fmt "switch_up(%a, %d ports)" Types.pp_switch sid
        (List.length f.Message.ports)
  | Switch_down sid -> Format.fprintf fmt "switch_down(%a)" Types.pp_switch sid
  | Port_status (sid, _, desc) ->
      Format.fprintf fmt "port_status(%a:%a up=%b)" Types.pp_switch sid
        Types.pp_port desc.Message.port_no desc.Message.up
  | Link_up l ->
      Format.fprintf fmt "link_up(%a:%d <-> %a:%d)" Types.pp_switch
        l.src_switch l.src_port Types.pp_switch l.dst_switch l.dst_port
  | Link_down l ->
      Format.fprintf fmt "link_down(%a:%d <-> %a:%d)" Types.pp_switch
        l.src_switch l.src_port Types.pp_switch l.dst_switch l.dst_port
  | Packet_in (sid, pi) ->
      Format.fprintf fmt "packet_in(%a:%a %a)" Types.pp_switch sid
        Types.pp_port pi.Message.pi_in_port Packet.pp pi.Message.pi_packet
  | Flow_removed (sid, fr) ->
      Format.fprintf fmt "flow_removed(%a %a)" Types.pp_switch sid Ofp_match.pp
        fr.Message.fr_pattern
  | Stats_reply (sid, xid, _) ->
      Format.fprintf fmt "stats_reply(%a #%d)" Types.pp_switch sid xid
  | Tick now -> Format.fprintf fmt "tick(%g)" now
