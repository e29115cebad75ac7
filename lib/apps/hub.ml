open Openflow
open Controller

type state = unit

let name = "hub"
let subscriptions = [ Event.K_packet_in ]
let init () = ()

let handle _ctx st = function
  | Event.Packet_in (sid, pi) ->
      let out =
        Command.packet_out ?buffer_id:pi.Message.pi_buffer_id
          ~in_port:pi.Message.pi_in_port sid
          [ Action.Output Types.port_flood ]
          (match pi.Message.pi_buffer_id with
          | Some _ -> None
          | None -> Some pi.Message.pi_packet)
      in
      (st, [ out ])
  | _ -> (st, [])
