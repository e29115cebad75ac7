(* Shared helpers for the test suites. *)

open Openflow

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* A context over a live network's services. *)
let context_of_services services = Controller.Services.context services

(* Fresh (clock, net) over a generated topology, with initial switch
   handshakes still pending in the notification queue. *)
let fresh_net topo =
  let clock = Netsim.Clock.create () in
  let net = Netsim.Net.create clock topo in
  (clock, net)

(* Build net + services and consume the initial handshake notifications so
   the services know the switches. Returns the events produced. *)
let net_with_services topo =
  let clock, net = fresh_net topo in
  let services =
    Controller.Services.create clock (Netsim.Net.topology net)
  in
  let events =
    Netsim.Net.poll net
    |> List.concat_map (Controller.Services.ingest services)
  in
  (clock, net, services, events)

let tcp_packet src dst = Packet.tcp ~src_host:src ~dst_host:dst ()

(* Read-only tracing over the installed rules right now: where a packet
   from a host would go, and whether the canonical packet from [src]
   reaches [dst]. *)
let trace net src pkt =
  Invariants.Snapshot.trace (Invariants.Snapshot.of_net net) src pkt

let reachable net src dst =
  Invariants.Checker.reachable (Invariants.Snapshot.of_net net) src dst

(* Alcotest testables. *)
let match_t = Alcotest.testable Ofp_match.pp Ofp_match.equal
let message_t = Alcotest.testable Message.pp Message.equal
let packet_t = Alcotest.testable Packet.pp Packet.equal
let event_t =
  Alcotest.testable Controller.Event.pp Controller.Event.equal
let command_t =
  Alcotest.testable Controller.Command.pp Controller.Command.equal

(* QCheck generators for protocol types. *)
module Gen = struct
  open QCheck2.Gen

  let mac = map (fun i -> i land 0xFFFFFFFFFFFF) (int_bound 0xFFFFFF)
  let ip = map (fun i -> i land 0xFFFFFFFF) (int_bound 0xFFFFFFF)
  let port_no = int_range 1 64
  let small_int16 = int_bound 0xFFFF

  let packet =
    let* dl_src = mac and* dl_dst = mac in
    let* vlan = opt (int_bound 4094) in
    let* dl_type =
      oneofl [ Packet.ethertype_ip; Packet.ethertype_arp; 0x86dd ]
    in
    let* nw_src = ip and* nw_dst = ip in
    let* nw_proto = oneofl [ 1; 6; 17 ] in
    let* nw_tos = int_bound 255 in
    let* tp_src = small_int16 and* tp_dst = small_int16 in
    let* payload_len = int_bound 1500 in
    return
      (Packet.make ~dl_vlan:vlan ~dl_type ~nw_proto ~nw_tos ~tp_src ~tp_dst
         ~payload_len ~dl_src ~dl_dst ~nw_src ~nw_dst ())

  let field g = opt g

  let ofp_match =
    let* in_port = field port_no in
    let* dl_src = field mac and* dl_dst = field mac in
    let* dl_vlan = field (opt (int_bound 4094)) in
    let* dl_type = field (oneofl [ Packet.ethertype_ip; Packet.ethertype_arp ]) in
    let* nw_src = field ip and* nw_dst = field ip in
    let* nw_proto = field (oneofl [ 1; 6; 17 ]) in
    let* nw_tos = field (int_bound 255) in
    let* tp_src = field small_int16 and* tp_dst = field small_int16 in
    return
      {
        Ofp_match.in_port;
        dl_src;
        dl_dst;
        dl_vlan;
        dl_type;
        nw_src;
        nw_dst;
        nw_proto;
        nw_tos;
        tp_src;
        tp_dst;
      }

  let action =
    let open Action in
    oneof
      [
        map (fun p -> Output p) port_no;
        map (fun m -> Set_dl_src m) mac;
        map (fun m -> Set_dl_dst m) mac;
        map (fun v -> Set_vlan v) (int_bound 4094);
        return Strip_vlan;
        map (fun i -> Set_nw_src i) ip;
        map (fun i -> Set_nw_dst i) ip;
        map (fun v -> Set_nw_tos v) (int_bound 255);
        map (fun v -> Set_tp_src v) small_int16;
        map (fun v -> Set_tp_dst v) small_int16;
        map2 (fun p q -> Enqueue (p, q)) port_no (int_bound 7);
      ]

  let actions = list_size (int_bound 4) action

  let flow_mod =
    let* pattern = ofp_match in
    let* command =
      oneofl
        Message.[ Add; Modify; Modify_strict; Delete; Delete_strict ]
    in
    let* idle_timeout = int_bound 300 and* hard_timeout = int_bound 300 in
    let* priority = int_range 0 0xFFFF in
    let* notify = bool in
    let* acts = actions in
    let* cookie = map Int64.of_int (int_bound 1_000_000) in
    return
      {
        Message.pattern;
        cookie;
        command;
        idle_timeout;
        hard_timeout;
        priority;
        buffer_id = None;
        out_port = None;
        notify_when_removed = notify;
        actions = acts;
      }
end
