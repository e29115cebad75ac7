open Openflow

type fault =
  | Link_down of Topology.node * Topology.node
  | Link_up of Topology.node * Topology.node
  | Switch_down of Types.switch_id
  | Switch_up of Types.switch_id
  | Port_down of Types.switch_id * Types.port_no
  | Port_up of Types.switch_id * Types.port_no
  | Channel_partition of Types.switch_id
  | Channel_heal of Types.switch_id
  | Channel_loss of Types.switch_id * float

type notification =
  | From_switch of Types.switch_id * Message.t
  | Switch_connected of Types.switch_id * Message.features
  | Switch_disconnected of Types.switch_id
  | Delivered of Topology.host * Packet.t

type stats = {
  mutable delivered : int;
  mutable delivered_to_dst : int;
  mutable blackholed : int;
  mutable looped : int;
  mutable packet_ins : int;
}

type t = {
  clock : Clock.t;
  topo : Topology.t;
  switches : (int, Sw.t) Hashtbl.t;
  channels : (int, Channel.t) Hashtbl.t;
  mutable pending : notification list;  (* reverse order *)
  mutable in_flight : (float * Types.switch_id * int option * Message.t) list;
      (* delayed controller-to-switch copies, unordered *)
  st : stats;
}

let queue t n = t.pending <- n :: t.pending

let hop_limit = 64

let create ?(channel = Channel.perfect) ?(channel_seed = 0) clock topo =
  let switches = Hashtbl.create 16 in
  let channels = Hashtbl.create 16 in
  let t =
    {
      clock;
      topo;
      switches;
      channels;
      pending = [];
      in_flight = [];
      st =
        {
          delivered = 0;
          delivered_to_dst = 0;
          blackholed = 0;
          looped = 0;
          packet_ins = 0;
        };
    }
  in
  List.iter
    (fun sid ->
      let port_nos = List.map fst (Topology.switch_ports topo sid) in
      let sw = Sw.create ~id:sid ~port_nos in
      Hashtbl.replace switches sid sw;
      Hashtbl.replace channels sid
        (Channel.create ~config:channel ~seed:(channel_seed + sid) ());
      queue t (Switch_connected (sid, Sw.features sw)))
    (Topology.switches topo);
  t

let topology t = t.topo
let clock t = t.clock

let switch t sid =
  match Hashtbl.find_opt t.switches sid with
  | Some sw -> sw
  | None -> raise Not_found

let channel t sid =
  match Hashtbl.find_opt t.channels sid with
  | Some ch -> ch
  | None -> raise Not_found

let stats t = t.st

let channel_totals t =
  let acc =
    {
      Channel.sent = 0;
      lost = 0;
      duplicated = 0;
      delayed = 0;
      replies_sent = 0;
      replies_lost = 0;
    }
  in
  Hashtbl.iter
    (fun _ ch ->
      let s = Channel.stats ch in
      acc.Channel.sent <- acc.Channel.sent + s.Channel.sent;
      acc.Channel.lost <- acc.Channel.lost + s.Channel.lost;
      acc.Channel.duplicated <- acc.Channel.duplicated + s.Channel.duplicated;
      acc.Channel.delayed <- acc.Channel.delayed + s.Channel.delayed;
      acc.Channel.replies_sent <- acc.Channel.replies_sent + s.Channel.replies_sent;
      acc.Channel.replies_lost <- acc.Channel.replies_lost + s.Channel.replies_lost)
    t.channels;
  acc

let dups_suppressed t =
  Hashtbl.fold (fun _ sw acc -> acc + sw.Sw.dups_suppressed) t.switches 0

(* Switch-to-controller messages cross the same degraded channel. *)
let queue_from_switch t sid msg =
  if Channel.reverse (channel t sid) then queue t (From_switch (sid, msg))

(* Propagate the data-plane effects of a forward_result outward from a
   switch, copy by copy, bounded by the hop limit. *)
let rec propagate t sid (fwd : Sw.forward_result) ~hops =
  let sw = switch t sid in
  List.iter
    (fun pi ->
      t.st.packet_ins <- t.st.packet_ins + 1;
      queue_from_switch t sid (Message.message (Message.Packet_in pi)))
    fwd.punts;
  List.iter
    (fun (pkt, out_port) ->
      Sw.account_tx sw out_port pkt;
      match Topology.peer t.topo (Topology.Switch sid) out_port with
      | Some { node = Topology.Host h; _ } ->
          t.st.delivered <- t.st.delivered + 1;
          if pkt.Packet.dl_dst = Types.mac_of_host h then
            t.st.delivered_to_dst <- t.st.delivered_to_dst + 1;
          queue t (Delivered (h, pkt))
      | Some { node = Topology.Switch next_sid; port = next_port } ->
          if hops >= hop_limit then t.st.looped <- t.st.looped + 1
          else begin
            let next_sw = switch t next_sid in
            if next_sw.up then
              let fwd' =
                Sw.process_packet next_sw ~now:(Clock.now t.clock)
                  ~in_port:next_port pkt
              in
              propagate t next_sid fwd' ~hops:(hops + 1)
            else t.st.blackholed <- t.st.blackholed + 1
          end
      | None -> t.st.blackholed <- t.st.blackholed + 1)
    fwd.transmits

(* Hand one delivered copy to the switch; surviving replies cross the
   reverse channel. *)
let deliver ?from t sid msg =
  let sw = switch t sid in
  let ch = channel t sid in
  let replies, fwd = Sw.handle_message ?from sw ~now:(Clock.now t.clock) msg in
  propagate t sid fwd ~hops:0;
  List.filter (fun _ -> Channel.reverse ch) replies

let send ?from t sid msg =
  match Hashtbl.find_opt t.switches sid with
  | None ->
      [ Message.message ~xid:msg.Message.xid
          (Message.Error (Message.Bad_request, "unknown switch")) ]
  | Some _ -> (
      match Channel.forward (channel t sid) with
      | None -> []  (* lost in transit: the caller sees silence *)
      | Some delays ->
          let now = Clock.now t.clock in
          List.concat_map
            (fun d ->
              if d <= 0. then deliver ?from t sid msg
              else begin
                t.in_flight <- (now +. d, sid, from, msg) :: t.in_flight;
                []
              end)
            delays)

(* Delayed copies whose time has come are delivered; their replies can no
   longer return synchronously and surface as notifications instead. *)
let process_in_flight t =
  let now = Clock.now t.clock in
  let due, rest =
    List.partition (fun (at, _, _, _) -> at <= now) t.in_flight
  in
  t.in_flight <- rest;
  List.iter
    (fun (_, sid, from, msg) ->
      List.iter
        (fun r -> queue t (From_switch (sid, r)))
        (deliver ?from t sid msg))
    (List.sort compare due)

let inject t h pkt =
  match Topology.host_attachment t.topo h with
  | None -> ()
  | Some (sid, port) -> (
      match Topology.peer t.topo (Topology.Host h) 1 with
      | None -> () (* access link down: packet lost at the NIC *)
      | Some _ ->
          let sw = switch t sid in
          if sw.up then begin
            let fwd =
              Sw.process_packet sw ~now:(Clock.now t.clock) ~in_port:port pkt
            in
            propagate t sid fwd ~hops:0
          end)

let poll t =
  process_in_flight t;
  let batch = List.rev t.pending in
  t.pending <- [];
  batch

let port_status_notification t sid port_no =
  let sw = switch t sid in
  match Sw.port sw port_no with
  | None -> ()
  | Some p ->
      if sw.up then
        queue_from_switch t sid
          (Message.message
             (Message.Port_status (Message.Port_modify, Sw.port_desc p)))

let set_link_state t link ~up =
  Topology.set_link link ~up;
  let update_endpoint (e : Topology.endpoint) =
    match e.node with
    | Topology.Switch sid ->
        let sw = switch t sid in
        ignore (Sw.set_port sw e.port ~up);
        port_status_notification t sid e.port
    | Topology.Host _ -> ()
  in
  update_endpoint link.Topology.a;
  update_endpoint link.Topology.b

let apply_fault t fault =
  match fault with
  | Link_down (na, nb) -> (
      match Topology.link_between t.topo na nb with
      | Some l -> set_link_state t l ~up:false
      | None -> ())
  | Link_up (na, nb) -> (
      match Topology.link_between t.topo na nb with
      | Some l -> set_link_state t l ~up:true
      | None -> ())
  | Port_down (sid, port) -> (
      match Topology.link_at t.topo (Topology.Switch sid) port with
      | Some l -> set_link_state t l ~up:false
      | None -> ())
  | Port_up (sid, port) -> (
      match Topology.link_at t.topo (Topology.Switch sid) port with
      | Some l -> set_link_state t l ~up:true
      | None -> ())
  | Switch_down sid ->
      let sw = switch t sid in
      if sw.up then begin
        Sw.set_up sw ~up:false;
        (* Carrier drops on every attached link; peers see port-down. *)
        List.iter
          (fun (_, l) -> set_link_state t l ~up:false)
          (Topology.switch_ports t.topo sid);
        queue t (Switch_disconnected sid)
      end
  | Channel_partition sid -> Channel.set_partitioned (channel t sid) true
  | Channel_heal sid -> Channel.set_partitioned (channel t sid) false
  | Channel_loss (sid, p) -> Channel.set_loss (channel t sid) p
  | Switch_up sid ->
      let sw = switch t sid in
      if not sw.up then begin
        Sw.set_up sw ~up:true;
        (* Reboot semantics: empty table, empty buffers, no dedup memory. *)
        Flow_table.clear sw.table;
        Hashtbl.reset sw.buffers;
        Sw.reset_dedup sw;
        List.iter
          (fun (_, l) ->
            (* Only links whose far end is also alive come back. *)
            let far_alive =
              let far (e : Topology.endpoint) =
                match e.node with
                | Topology.Switch other ->
                    other = sid || (switch t other).up
                | Topology.Host _ -> true
              in
              far l.Topology.a && far l.Topology.b
            in
            if far_alive then set_link_state t l ~up:true)
          (Topology.switch_ports t.topo sid);
        queue t (Switch_connected (sid, Sw.features sw))
      end

let tick t =
  process_in_flight t;
  let now = Clock.now t.clock in
  List.iter
    (fun sid ->
      let sw = switch t sid in
      if sw.up then
        List.iter
          (fun msg -> queue_from_switch t sid msg)
          (Sw.expire_flows sw ~now))
    (Topology.switches t.topo)
