open Openflow
open Controller

module Ip_map = Map.Make (Int)

type state = Types.mac Ip_map.t  (* ip -> mac *)

let name = "arp_responder"
let subscriptions = [ Event.K_packet_in ]

let init () = Ip_map.empty

let arp_request_op = 1
let arp_reply_op = 2

let handle _ctx st = function
  | Event.Packet_in (sid, pi) -> (
      let pkt = pi.Message.pi_packet in
      if pkt.Packet.dl_type <> Packet.ethertype_arp then (st, [])
      else begin
        (* Gratuitous learning from any ARP packet's source fields. A
           re-learned binding leaves the map, and so the state, as it was. *)
        let st = Ip_map.add pkt.Packet.nw_src pkt.Packet.dl_src st in
        if pkt.Packet.nw_proto <> arp_request_op then (st, [])
        else
          match Ip_map.find_opt pkt.Packet.nw_dst st with
          | Some target_mac ->
              (* Answer on behalf of the target, straight back out of the
                 ingress port. *)
              let reply =
                Packet.make ~dl_type:Packet.ethertype_arp
                  ~nw_proto:arp_reply_op ~dl_src:target_mac
                  ~dl_dst:pkt.Packet.dl_src ~nw_src:pkt.Packet.nw_dst
                  ~nw_dst:pkt.Packet.nw_src ~tp_src:0 ~tp_dst:0
                  ~payload_len:28 ()
              in
              ( st,
                [
                  Command.packet_out sid
                    [ Action.Output pi.Message.pi_in_port ]
                    (Some reply);
                ] )
          | None ->
              ( st,
                [
                  Command.packet_out ?buffer_id:pi.Message.pi_buffer_id
                    ~in_port:pi.Message.pi_in_port sid
                    [ Action.Output Types.port_flood ]
                    (match pi.Message.pi_buffer_id with
                    | Some _ -> None
                    | None -> Some pkt);
                ] )
      end)
  | _ -> (st, [])
