open Openflow
open Controller

(* Destination-MAC routing declared as intent. [handle] only *observes*:
   it records which MACs exist and floods the triggering packet so nothing
   blackholes while tables converge. All rule installation happens through
   the declared policy — per-switch shortest-path routes the runtime
   re-derives after every event it delivers (and Crash-Pad during
   recovery), and recompiles only when the routes or the switch set
   changed. *)

type state = Types.mac list  (* destinations seen, sorted *)

let name = "policy_router"
(* Packet-ins only: the routes themselves are derived from the *live*
   topology (ctx links) at every reconcile, so the app has no need to
   watch link or switch events — a punted packet is precisely the signal
   that the compiled tables no longer cover the network. *)
let subscriptions = [ Event.K_packet_in ]
let init () = []

let hosts_known st = List.length st

(* Each switch's out-links over the live links, as (port, neighbour)
   sorted ascending: the order a BFS tries them in. *)
let adjacency links =
  let adjacency = Hashtbl.create 16 in
  List.iter
    (fun (l : Event.link) ->
      let existing =
        Option.value (Hashtbl.find_opt adjacency l.Event.src_switch) ~default:[]
      in
      Hashtbl.replace adjacency l.Event.src_switch
        ((l.Event.src_port, l.Event.dst_switch) :: existing))
    links;
  Hashtbl.filter_map_inplace
    (fun _ ns -> Some (List.sort compare ns))
    adjacency;
  fun sid -> Option.value (Hashtbl.find_opt adjacency sid) ~default:[]

(* One BFS from [src]: every switch it reaches, mapped to the port of [src]
   through which that switch was first reached — its shortest-path first
   hop, ties going to the lowest (port, neighbour). *)
let first_hops neighbors src =
  let hops = Hashtbl.create 16 in
  let queue = Queue.create () in
  let reach port next =
    if next <> src && not (Hashtbl.mem hops next) then begin
      Hashtbl.replace hops next port;
      Queue.push (next, port) queue
    end
  in
  List.iter (fun (port, next) -> reach port next) (neighbors src);
  while not (Queue.is_empty queue) do
    let sid, port = Queue.pop queue in
    List.iter (fun (_, next) -> reach port next) (neighbors sid)
  done;
  hops

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
  let neighbors = adjacency (App_sig.links ctx) in
  let hops =
    List.map (fun sw -> (sw, lazy (first_hops neighbors sw))) switches
  in
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
                    else
                      Hashtbl.find_opt (Lazy.force (List.assoc sw hops)) dst_sid
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
