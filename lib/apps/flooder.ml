open Openflow
open Controller

type state = unit

let name = "flooder"
let subscriptions = [ Event.K_packet_in ]
let init () = ()

let flow_idle_timeout = 60

let handle _ctx st = function
  | Event.Packet_in (sid, pi) ->
      let pattern =
        Ofp_match.make ~in_port:pi.Message.pi_in_port
          ~dl_dst:pi.Message.pi_packet.Packet.dl_dst ()
      in
      let install =
        Command.install ~idle_timeout:flow_idle_timeout sid pattern
          [ Action.Output Types.port_flood ]
      in
      let release =
        Command.packet_out ?buffer_id:pi.Message.pi_buffer_id
          ~in_port:pi.Message.pi_in_port sid
          [ Action.Output Types.port_flood ]
          (match pi.Message.pi_buffer_id with
          | Some _ -> None
          | None -> Some pi.Message.pi_packet)
      in
      (st, [ install; release ])
  | _ -> (st, [])
