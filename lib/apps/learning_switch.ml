open Openflow
open Controller

module Mac_table = Map.Make (struct
  type t = Types.switch_id * Types.mac

  let compare = compare
end)

type state = Types.port_no Mac_table.t

let name = "learning_switch"

let subscriptions = [ Event.K_packet_in; Event.K_switch_down ]

let init () = Mac_table.empty

let make ~idle_timeout =
  let handle _ctx st event =
    match event with
    | Event.Packet_in (sid, pi) ->
        let pkt = pi.Message.pi_packet in
        let in_port = pi.Message.pi_in_port in
        (* Learn where the source lives (unless it is a broadcast echo). *)
        let st =
          if Types.mac_is_broadcast pkt.Packet.dl_src then st
          else Mac_table.add (sid, pkt.Packet.dl_src) in_port st
        in
        let commands =
          match
            if Types.mac_is_broadcast pkt.Packet.dl_dst then None
            else Mac_table.find_opt (sid, pkt.Packet.dl_dst) st
          with
          | Some out_port when out_port <> in_port ->
              (* Destination known: pin the flow and release the packet. *)
              let pattern = Ofp_match.exact ~in_port pkt in
              [
                Command.install ~idle_timeout ~notify_when_removed:true sid
                  pattern
                  [ Action.Output out_port ];
                Command.packet_out ?buffer_id:pi.Message.pi_buffer_id
                  ~in_port sid
                  [ Action.Output out_port ]
                  (match pi.Message.pi_buffer_id with
                  | Some _ -> None
                  | None -> Some pkt);
              ]
          | Some _ | None ->
              [
                Command.packet_out ?buffer_id:pi.Message.pi_buffer_id ~in_port
                  sid
                  [ Action.Output Types.port_flood ]
                  (match pi.Message.pi_buffer_id with
                  | Some _ -> None
                  | None -> Some pkt);
              ]
        in
        (st, commands)
    | Event.Switch_down sid ->
        (* Forget everything learned at the dead switch. *)
        let st =
          Mac_table.filter (fun (owner, _) _ -> owner <> sid) st
        in
        (st, [])
    | _ -> (st, [])
  in
  handle

let handle = (make ~idle_timeout:60 : App_sig.context -> state -> Event.t -> state * Command.t list)

let with_idle_timeout idle_timeout : (module App_sig.APP) =
  (module struct
    type nonrec state = state

    let name = Printf.sprintf "learning_switch(idle=%d)" idle_timeout
    let subscriptions = subscriptions
    let init = init
    let handle ctx st ev = make ~idle_timeout ctx st ev
  end)
