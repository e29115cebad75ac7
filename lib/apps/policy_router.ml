open Openflow
open Controller

(* Destination-MAC routing declared as intent. [handle] only *observes*:
   it records which MACs exist and floods the triggering packet so nothing
   blackholes while tables converge. All rule installation happens through
   the declared policy — per-switch shortest-path routes the runtime
   re-derives after every event it delivers (and Crash-Pad during
   recovery), and recompiles only the switches whose routes changed or
   that joined the switch set. Each route is one row on its switch and
   overlaps no other, so a new destination costs one flow-mod per switch
   that routes it. The app does no routing of its own: each route's port
   is the context's [first_hop], which the controller computes once per
   source switch and keeps until a switch or link changes, so a [policy]
   call costs one lookup per (destination, switch). *)

type state = Types.mac list  (* destinations seen, sorted *)

let name = "policy_router"
(* Packet-ins only: the routes themselves are derived from the *live*
   topology (ctx first_hop) at every reconcile, so the app has no need to
   watch link or switch events — a punted packet is precisely the signal
   that the compiled tables no longer cover the network. *)
let subscriptions = [ Event.K_packet_in ]
let init () = []

let flood_out sid (pi : Message.packet_in) =
  Command.packet_out ?buffer_id:pi.Message.pi_buffer_id
    ~in_port:pi.Message.pi_in_port sid
    [ Action.Output Types.port_flood ]
    (match pi.Message.pi_buffer_id with
    | Some _ -> None
    | None -> Some pi.Message.pi_packet)

let handle _ctx (st : state) = function
  | Event.Packet_in (sid, pi) ->
      let src = pi.Message.pi_packet.Packet.dl_src in
      let st' =
        if List.mem src st then st else List.sort compare (src :: st)
      in
      (st', [ flood_out sid pi ])
  | _ -> (st, [])

(* One route bundle per known destination: every switch forwards matching
   traffic out its shortest-path port (the attachment port on the last
   hop). Unknown destinations fall off the compiled table and punt to the
   controller, where [handle] floods them. *)
let policy ctx (st : state) =
  let switches = App_sig.switches ctx in
  let routes =
    List.filter_map
      (fun mac ->
        match App_sig.host_location ctx mac with
        | None -> None
        | Some (dst_sid, dst_port) ->
            let per_switch =
              List.filter_map
                (fun sw ->
                  let out =
                    if sw = dst_sid then Some dst_port
                    else App_sig.first_hop ctx sw dst_sid
                  in
                  Option.map
                    (fun port ->
                      Policy.at sw
                        (Policy.seq
                           (Policy.filter (Policy.Test (Policy.Dl_dst mac)))
                           (Policy.forward port)))
                    out)
                switches
            in
            (match per_switch with
            | [] -> None
            | l -> Some (Policy.union_all l)))
      st
  in
  Some (Policy.union_all routes)
