open Openflow
open Controller

type state = (Types.switch_id * Ofp_match.t) list  (* installed route rules *)

let name = "router"

let subscriptions =
  [
    Event.K_packet_in;
    Event.K_link_down;
    Event.K_switch_down;
    Event.K_link_up;
  ]

let init () = []

let route_priority = Message.default_priority + 10
let route_idle_timeout = 300

(* BFS over live links from [src] to [dst]; returns the hop list as
   (switch, egress port) pairs, excluding the final host port. *)
let shortest_path ~reverse_neighbors links src dst =
  if src = dst then Some []
  else begin
    let adjacency = Hashtbl.create 16 in
    List.iter
      (fun (l : Event.link) ->
        let existing =
          Option.value (Hashtbl.find_opt adjacency l.src_switch) ~default:[]
        in
        Hashtbl.replace adjacency l.src_switch
          ((l.src_port, l.dst_switch) :: existing))
      links;
    let neighbors sid =
      let ns =
        Option.value (Hashtbl.find_opt adjacency sid) ~default:[]
        |> List.sort compare
      in
      if reverse_neighbors then List.rev ns else ns
    in
    let visited = Hashtbl.create 16 in
    Hashtbl.replace visited src ();
    (* queue holds (switch, path-so-far in reverse) *)
    let queue = Queue.create () in
    Queue.push (src, []) queue;
    let result = ref None in
    while !result = None && not (Queue.is_empty queue) do
      let sid, path = Queue.pop queue in
      List.iter
        (fun (port, next) ->
          if !result = None && not (Hashtbl.mem visited next) then begin
            Hashtbl.replace visited next ();
            let path' = (sid, port) :: path in
            if next = dst then result := Some (List.rev path')
            else Queue.push (next, path') queue
          end)
        (neighbors sid)
    done;
    !result
  end

let flood_out sid (pi : Message.packet_in) =
  Command.packet_out ?buffer_id:pi.pi_buffer_id ~in_port:pi.pi_in_port sid
    [ Action.Output Types.port_flood ]
    (match pi.pi_buffer_id with
    | Some _ -> None
    | None -> Some pi.pi_packet)

let make ~reverse_neighbors =
  fun (ctx : App_sig.context) (st : state) event ->
    match event with
    | Event.Packet_in (sid, pi) -> (
        let pkt = pi.Message.pi_packet in
        match
          if Types.mac_is_broadcast pkt.Packet.dl_dst then None
          else App_sig.host_location ctx pkt.Packet.dl_dst
        with
        | None -> (st, [ flood_out sid pi ])
        | Some (dst_sid, dst_port) -> (
            match
              shortest_path ~reverse_neighbors (App_sig.links ctx) sid
                dst_sid
            with
            | None -> (st, [ flood_out sid pi ])
            | Some hops ->
                let pattern = Ofp_match.make ~dl_dst:pkt.Packet.dl_dst () in
                (* One rule per transit switch, plus the egress rule at the
                   destination switch — all in a single transaction. *)
                let transit =
                  List.map
                    (fun (hop_sid, out_port) ->
                      Command.install ~idle_timeout:route_idle_timeout
                        ~priority:route_priority hop_sid pattern
                        [ Action.Output out_port ])
                    hops
                in
                let egress =
                  Command.install ~idle_timeout:route_idle_timeout
                    ~priority:route_priority dst_sid pattern
                    [ Action.Output dst_port ]
                in
                let first_hop_action =
                  match hops with
                  | (_, port) :: _ -> Action.Output port
                  | [] -> Action.Output dst_port
                in
                let release =
                  Command.packet_out ?buffer_id:pi.Message.pi_buffer_id
                    ~in_port:pi.Message.pi_in_port sid [ first_hop_action ]
                    (match pi.Message.pi_buffer_id with
                    | Some _ -> None
                    | None -> Some pkt)
                in
                let newly =
                  (dst_sid, pattern)
                  :: List.map (fun (hop_sid, _) -> (hop_sid, pattern)) hops
                in
                (newly @ st, transit @ [ egress; release ])))
    | Event.Link_down _ | Event.Switch_down _ | Event.Link_up _ ->
        (* Topology changed: routes may be stale. Tear everything down and
           let traffic re-install — a conservative RouteFlow-ish strategy
           that produces the multi-switch delete transactions NetLog must
           also be able to roll back. *)
        let deletes =
          List.map
            (fun (sid, pattern) ->
              Command.uninstall ~priority:route_priority sid pattern)
            st
        in
        ([], deletes)
    | _ -> (st, [])

let handle = make ~reverse_neighbors:false

let variant ?(prefer_high_ports = false) variant_name : (module App_sig.APP) =
  (module struct
    type nonrec state = state

    let name = variant_name
    let subscriptions = subscriptions
    let init = init
    let handle ctx st ev = make ~reverse_neighbors:prefer_high_ports ctx st ev
  end)
