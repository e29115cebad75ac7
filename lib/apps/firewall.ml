open Openflow
open Controller

type state = unit

let name = "firewall"
let subscriptions = [ Event.K_switch_up; Event.K_packet_in ]
let init () = ()

let blocked_ports = [ 23; 445 ]

let acl_priority = Message.default_priority + 100

let handle (_ctx : App_sig.context) (st : state) event =
  match event with
  | Event.Switch_up (sid, _features) ->
      let rules =
        List.map
          (fun tp_dst ->
            Command.install ~priority:acl_priority sid
              (Ofp_match.make ~dl_type:Packet.ethertype_ip
                 ~nw_proto:Packet.proto_tcp ~tp_dst ())
              [])
          blocked_ports
      in
      (st, rules)
  | Event.Packet_in (sid, pi) ->
      let pkt = pi.Message.pi_packet in
      if
        pkt.Packet.dl_type = Packet.ethertype_ip
        && pkt.Packet.nw_proto = Packet.proto_tcp
        && List.mem pkt.Packet.tp_dst blocked_ports
      then
        (* Blocked traffic leaked to the controller (e.g. rules lost in a
           switch reboot): drop it and re-pin the exact flow. *)
        ( st,
          [
            Command.install ~priority:acl_priority sid
              (Ofp_match.exact ~in_port:pi.Message.pi_in_port pkt)
              [];
          ] )
      else (st, [])
  | _ -> (st, [])
