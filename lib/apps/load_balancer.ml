open Openflow
open Controller

module Flow_key = Map.Make (struct
  type t = Types.switch_id * Types.mac * Types.mac * int * int

  let compare = compare
end)

module Sid_map = Map.Make (Int)

type state = {
  cursor : int Sid_map.t;  (* per-switch round-robin position *)
  assigned : Types.port_no Flow_key.t;  (* flow -> chosen uplink *)
}

let name = "load_balancer"
let subscriptions = [ Event.K_packet_in ]
let init () = { cursor = Sid_map.empty; assigned = Flow_key.empty }

let lb_priority = Message.default_priority + 5
let lb_idle_timeout = 120

(* Uplinks of a switch = its live inter-switch ports. *)
let uplinks (ctx : App_sig.context) sid =
  App_sig.links ctx
  |> List.filter_map (fun (l : Event.link) ->
         if l.src_switch = sid then Some l.src_port else None)
  |> List.sort_uniq compare

let handle (ctx : App_sig.context) st = function
  | Event.Packet_in (sid, pi) -> (
      let pkt = pi.Message.pi_packet in
      let key =
        (sid, pkt.Packet.dl_src, pkt.Packet.dl_dst, pkt.Packet.tp_src,
         pkt.Packet.tp_dst)
      in
      let release out =
        Command.packet_out ?buffer_id:pi.Message.pi_buffer_id
          ~in_port:pi.Message.pi_in_port sid [ Action.Output out ]
          (match pi.Message.pi_buffer_id with
          | Some _ -> None
          | None -> Some pkt)
      in
      match uplinks ctx sid with
      | [] ->
          (* Pure edge switch: nothing to balance over; flood. *)
          ( st,
            [
              Command.packet_out ?buffer_id:pi.Message.pi_buffer_id
                ~in_port:pi.Message.pi_in_port sid
                [ Action.Output Types.port_flood ]
                (match pi.Message.pi_buffer_id with
                | Some _ -> None
                | None -> Some pkt);
            ] )
      | ports -> (
          match Flow_key.find_opt key st.assigned with
          | Some out -> (st, [ release out ])
          | None ->
              let cur = Option.value (Sid_map.find_opt sid st.cursor) ~default:0 in
              let out = List.nth ports (cur mod List.length ports) in
              let st =
                {
                  cursor = Sid_map.add sid (cur + 1) st.cursor;
                  assigned = Flow_key.add key out st.assigned;
                }
              in
              let pattern = Ofp_match.exact ~in_port:pi.Message.pi_in_port pkt in
              ( st,
                [
                  Command.install ~idle_timeout:lb_idle_timeout
                    ~priority:lb_priority sid pattern
                    [ Action.Output out ];
                  release out;
                ] )))
  | _ -> (st, [])
