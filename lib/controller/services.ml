open Openflow
module Topology = Netsim.Topology
module Net = Netsim.Net
module Clock = Netsim.Clock

(* Switch ids key the routing tables; [Int.hash] is not in OCaml 4.14. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (x : int) = x land max_int
end)

let first_hops (links : Event.link list) =
  let adjacency = Itbl.create 16 in
  List.iter
    (fun (l : Event.link) ->
      let existing =
        Option.value (Itbl.find_opt adjacency l.src_switch) ~default:[]
      in
      Itbl.replace adjacency l.src_switch
        ((l.src_port, l.dst_switch) :: existing))
    links;
  Itbl.filter_map_inplace (fun _ ns -> Some (List.sort compare ns)) adjacency;
  let neighbors sid = Option.value (Itbl.find_opt adjacency sid) ~default:[] in
  let bfs src =
    let hops = Itbl.create 16 in
    let queue = Queue.create () in
    let reach port next =
      if next <> src && not (Itbl.mem hops next) then begin
        Itbl.replace hops next port;
        Queue.push (next, port) queue
      end
    in
    List.iter (fun (port, next) -> reach port next) (neighbors src);
    while not (Queue.is_empty queue) do
      let sid, port = Queue.pop queue in
      List.iter (fun (_, next) -> reach port next) (neighbors sid)
    done;
    hops
  in
  let by_source = Itbl.create 16 in
  fun src dst ->
    let hops =
      match Itbl.find_opt by_source src with
      | Some hops -> hops
      | None ->
          let hops = bfs src in
          Itbl.replace by_source src hops;
          hops
    in
    Itbl.find_opt hops dst

(* What apps read of the topology, derived from [connected] and [links]
   on the first read after either changed. *)
type view = {
  switches : Types.switch_id list;
  links : Event.link list;
  first_hop : Types.switch_id -> Types.switch_id -> Types.port_no option;
}

type t = {
  clock : Clock.t;
  topo : Topology.t;  (* LLDP oracle only; never mutated here *)
  connected : (int, Message.features) Hashtbl.t;
  port_state : (int * int, bool) Hashtbl.t;  (* (switch, port) -> up *)
  links : (int * int, int * int) Hashtbl.t;
      (* live links, recorded in both directions *)
  hosts : (Types.mac, Types.switch_id * Types.port_no) Hashtbl.t;
  mutable view : view option;
}

let create clock topo =
  {
    clock;
    topo;
    connected = Hashtbl.create 16;
    port_state = Hashtbl.create 64;
    links = Hashtbl.create 32;
    hosts = Hashtbl.create 64;
    view = None;
  }

let link_event s1 p1 s2 p2 =
  { Event.src_switch = s1; src_port = p1; dst_switch = s2; dst_port = p2 }

let view t =
  match t.view with
  | Some v -> v
  | None ->
      let links =
        Hashtbl.fold
          (fun (s1, p1) (s2, p2) acc -> link_event s1 p1 s2 p2 :: acc)
          t.links []
        |> List.sort compare
      in
      let v =
        {
          switches =
            Hashtbl.fold (fun sid _ acc -> sid :: acc) t.connected []
            |> List.sort compare;
          links;
          first_hop = first_hops links;
        }
      in
      t.view <- Some v;
      v

let connected_switches t = (view t).switches
let live_links t = (view t).links
let first_hop t src dst = (view t).first_hop src dst

let host_location t mac = Hashtbl.find_opt t.hosts mac

let port_is_up t sid port =
  match Hashtbl.find_opt t.port_state (sid, port) with
  | Some up -> up
  | None -> false

(* The only writers of [connected] and [links], so the only places that
   drop the view. *)
let connect t sid (features : Message.features) =
  Hashtbl.replace t.connected sid features;
  t.view <- None;
  List.iter
    (fun (d : Message.port_desc) ->
      Hashtbl.replace t.port_state (sid, d.port_no) d.up)
    features.ports

let disconnect t sid =
  Hashtbl.remove t.connected sid;
  t.view <- None

let record_link t s1 p1 s2 p2 =
  Hashtbl.replace t.links (s1, p1) (s2, p2);
  Hashtbl.replace t.links (s2, p2) (s1, p1);
  t.view <- None

let forget_link t s1 p1 =
  match Hashtbl.find_opt t.links (s1, p1) with
  | None -> None
  | Some (s2, p2) ->
      Hashtbl.remove t.links (s1, p1);
      Hashtbl.remove t.links (s2, p2);
      t.view <- None;
      Some (s2, p2)

(* The oracle's view of who is on the other side of a switch port,
   regardless of current link state. *)
let oracle_peer t sid port =
  Topology.peer_even_if_down t.topo (Topology.Switch sid) port

(* Discover links adjacent to a newly connected switch: both ends must be
   connected, both ports up, and the physical link alive. *)
let discover_links_around t sid =
  List.filter_map
    (fun (port, (l : Topology.link)) ->
      if not l.up then None
      else
        match oracle_peer t sid port with
        | Some { node = Topology.Switch nb; port = nb_port } ->
            if
              Hashtbl.mem t.connected nb
              && port_is_up t sid port && port_is_up t nb nb_port
              && not (Hashtbl.mem t.links (sid, port))
            then begin
              record_link t sid port nb nb_port;
              Some (Event.Link_up (link_event sid port nb nb_port))
            end
            else None
        | Some { node = Topology.Host _; _ } | None -> None)
    (Topology.switch_ports t.topo sid)

let on_switch_connected t sid features =
  connect t sid features;
  Event.Switch_up (sid, features) :: discover_links_around t sid

let on_switch_disconnected t sid =
  disconnect t sid;
  (* Links die with the switch; report each once. *)
  let dead =
    Hashtbl.fold
      (fun (s1, p1) (s2, p2) acc ->
        if s1 = sid then (s1, p1, s2, p2) :: acc else acc)
      t.links []
    |> List.sort compare
  in
  let downs =
    List.filter_map
      (fun (s1, p1, s2, p2) ->
        match forget_link t s1 p1 with
        | Some _ -> Some (Event.Link_down (link_event s1 p1 s2 p2))
        | None -> None)
      dead
  in
  downs @ [ Event.Switch_down sid ]

let on_port_status t sid reason (desc : Message.port_desc) =
  Hashtbl.replace t.port_state (sid, desc.port_no) desc.up;
  let base = Event.Port_status (sid, reason, desc) in
  if desc.up then
    (* A port coming back may resurrect a link, if the oracle agrees. *)
    match oracle_peer t sid desc.port_no with
    | Some { node = Topology.Switch nb; port = nb_port } -> (
        match Topology.link_at t.topo (Topology.Switch sid) desc.port_no with
        | Some l
          when l.up && Hashtbl.mem t.connected nb
               && port_is_up t nb nb_port
               && not (Hashtbl.mem t.links (sid, desc.port_no)) ->
            record_link t sid desc.port_no nb nb_port;
            [ base; Event.Link_up (link_event sid desc.port_no nb nb_port) ]
        | Some _ | None -> [ base ])
    | Some { node = Topology.Host _; _ } | None -> [ base ]
  else
    match forget_link t sid desc.port_no with
    | Some (nb, nb_port) ->
        [ base; Event.Link_down (link_event sid desc.port_no nb nb_port) ]
    | None -> [ base ]

let learn_host t sid (pi : Message.packet_in) =
  (* Device manager: learn source MACs seen on host-facing (edge) ports. *)
  match oracle_peer t sid pi.pi_in_port with
  | Some { node = Topology.Host _; _ } ->
      Hashtbl.replace t.hosts pi.pi_packet.Packet.dl_src (sid, pi.pi_in_port)
  | Some { node = Topology.Switch _; _ } | None -> ()

let ingest t = function
  | Net.Switch_connected (sid, features) -> on_switch_connected t sid features
  | Net.Switch_disconnected sid -> on_switch_disconnected t sid
  | Net.From_switch (sid, msg) -> (
      match msg.Message.payload with
      | Message.Packet_in pi ->
          learn_host t sid pi;
          [ Event.Packet_in (sid, pi) ]
      | Message.Flow_removed fr -> [ Event.Flow_removed (sid, fr) ]
      | Message.Port_status (reason, desc) -> on_port_status t sid reason desc
      | Message.Stats_reply sr -> [ Event.Stats_reply (sid, msg.Message.xid, sr) ]
      | Message.Hello | Message.Echo_request _ | Message.Echo_reply _
      | Message.Features_request | Message.Features_reply _
      | Message.Packet_out _ | Message.Flow_mod _ | Message.Port_mod _
      | Message.Stats_request _ | Message.Barrier_request
      | Message.Barrier_reply | Message.Error _ ->
          [])
  | Net.Delivered _ -> []

(* Apply one *dispatched event*'s state effects without emitting anything.
   Every state change [ingest] makes is captured by an event it (or a
   sibling call) emits — switch features, port descs, link endpoints and
   packet-ins all ride on the events themselves — so replaying a log of
   dispatched events through [observe] reconstructs the exact service
   state the ingesting controller had when it dispatched them. Derived
   link events are in the log too, so [Switch_up]/[Port_status] must not
   re-run discovery here: the log already carries its results. *)
let observe t = function
  | Event.Switch_up (sid, features) -> connect t sid features
  | Event.Switch_down sid -> disconnect t sid
  | Event.Port_status (sid, _reason, desc) ->
      Hashtbl.replace t.port_state (sid, desc.port_no) desc.up
  | Event.Link_up l ->
      record_link t l.Event.src_switch l.Event.src_port l.Event.dst_switch
        l.Event.dst_port
  | Event.Link_down l -> ignore (forget_link t l.Event.src_switch l.Event.src_port)
  | Event.Packet_in (sid, pi) -> learn_host t sid pi
  | Event.Flow_removed _ | Event.Stats_reply _ | Event.Tick _ -> ()

let context t : App_sig.context =
  {
    now = (fun () -> Clock.now t.clock);
    switches = (fun () -> connected_switches t);
    switch_ports =
      (fun sid ->
        match Hashtbl.find_opt t.connected sid with
        | None -> []
        | Some f ->
            f.Message.ports
            |> List.filter_map (fun (d : Message.port_desc) ->
                   if port_is_up t sid d.port_no then Some d.port_no else None)
            |> List.sort compare);
    links = (fun () -> live_links t);
    first_hop = (fun src dst -> first_hop t src dst);
    host_location = (fun mac -> host_location t mac);
  }
