module App_sig = Controller.App_sig
(* Spanning tree (Port_mod / NO_FLOOD) and ARP responder tests. *)

open Openflow
open Netsim
module Runtime = Legosdn.Runtime
module Netlog = Legosdn.Netlog
module Event = Controller.Event
module Command = Controller.Command

let runtime_over topo apps =
  let clock = Clock.create () in
  let net = Net.create clock topo in
  let rt = Runtime.create net apps in
  Runtime.step rt;
  (net, rt)

let no_flood_ports net sid =
  Sw.port_list (Net.switch net sid)
  |> List.filter (fun (p : Sw.port_state) -> p.no_flood)
  |> List.map (fun (p : Sw.port_state) -> p.port_no)

let total_pruned net sids =
  List.fold_left (fun acc sid -> acc + List.length (no_flood_ports net sid)) 0 sids

let test_port_mod_sets_flag () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 2) in
  ignore (Net.poll net);
  let replies =
    Net.send net 1
      (Message.message (Message.Port_mod { pm_port_no = 1; pm_no_flood = true }))
  in
  T_util.checkb "no error" true (replies = []);
  Alcotest.(check (list int)) "flag set" [ 1 ] (no_flood_ports net 1);
  T_util.checkb "bad port errors" true
    (match
       Net.send net 1
         (Message.message (Message.Port_mod { pm_port_no = 99; pm_no_flood = true }))
     with
    | [ { Message.payload = Message.Error (Message.Port_mod_failed, _); _ } ] -> true
    | _ -> false)

let test_flood_honors_no_flood_all_does_not () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
  ignore (Net.poll net);
  (* s2 has ports 1 (to s1), 2 (to s3), 100 (host). Prune port 2. *)
  ignore
    (Net.send net 2
       (Message.message (Message.Port_mod { pm_port_no = 2; pm_no_flood = true })));
  let sw = Net.switch net 2 in
  let flood =
    Sw.handle_message sw ~now:0.
      (Message.message
         (Message.Packet_out
            {
              po_buffer_id = None;
              po_in_port = Some 1;
              po_actions = [ Action.Output Types.port_flood ];
              po_packet = Some (T_util.tcp_packet 1 2);
            }))
    |> snd
  in
  Alcotest.(check (list int)) "flood skips pruned port" [ 100 ]
    (List.map snd flood.Sw.transmits);
  let all =
    Sw.handle_message sw ~now:0.
      (Message.message
         (Message.Packet_out
            {
              po_buffer_id = None;
              po_in_port = Some 1;
              po_actions = [ Action.Output Types.port_all ];
              po_packet = Some (T_util.tcp_packet 1 2);
            }))
    |> snd
  in
  Alcotest.(check (list int)) "ALL ignores the flag" [ 2; 100 ]
    (List.sort compare (List.map snd all.Sw.transmits))

let test_stp_prunes_ring () =
  let net, rt = runtime_over (Topo_gen.ring ~hosts_per_switch:1 4) [ (App_sig.app (module Apps.Spanning_tree)) ] in
  ignore rt;
  (* Ring of 4: 4 links, tree has 3 — one link pruned, i.e. both of its
     endpoints have NO_FLOOD. *)
  T_util.checki "exactly one link pruned (2 ports)" 2 (total_pruned net [ 1; 2; 3; 4 ])

let test_stp_keeps_linear_untouched () =
  let net, _ = runtime_over (Topo_gen.linear ~hosts_per_switch:1 4) [ (App_sig.app (module Apps.Spanning_tree)) ] in
  T_util.checki "no redundancy, nothing pruned" 0 (total_pruned net [ 1; 2; 3; 4 ])

let test_stp_stops_broadcast_storm () =
  (* A hub flooding a ring is the storm case the guard sheds; with the
     spanning tree pruning the loop, nothing needs shedding at all. *)
  let storm_shed with_stp =
    let apps : Controller.App_sig.app list =
      if with_stp then [ (App_sig.app (module Apps.Spanning_tree)); (App_sig.app (module Apps.Hub)) ]
      else [ (App_sig.app (module Apps.Hub)) ]
    in
    let net, rt = runtime_over (Topo_gen.ring ~hosts_per_switch:1 4) apps in
    Net.inject net 1 (T_util.tcp_packet 1 3);
    Runtime.step rt;
    Runtime.events_shed rt
  in
  T_util.checkb "hub alone storms the ring" true (storm_shed false > 0);
  T_util.checki "hub + spanning tree: no storm" 0 (storm_shed true)

let test_stp_repairs_after_tree_link_failure () =
  let net, rt = runtime_over (Topo_gen.ring ~hosts_per_switch:1 4) [ (App_sig.app (module Apps.Spanning_tree)) ] in
  (* Kill a TREE link: the previously pruned link must be re-opened. *)
  let pruned_before =
    List.concat_map (fun sid -> List.map (fun p -> (sid, p)) (no_flood_ports net sid)) [ 1; 2; 3; 4 ]
  in
  T_util.checki "one pruned link before" 2 (List.length pruned_before);
  (* Fail a link that is NOT the pruned one. *)
  let tree_link =
    (* links of ring 4: 1-2, 2-3, 3-4, 4-1. Find one whose endpoints are
       both unpruned. *)
    let is_pruned sid port = List.mem (sid, port) pruned_before in
    List.find
      (fun (l : Topology.link) ->
        match (l.a.node, l.b.node) with
        | Topology.Switch s1, Topology.Switch s2 ->
            not (is_pruned s1 l.a.port || is_pruned s2 l.b.port)
        | _ -> false)
      (Topology.links (Net.topology net))
  in
  Net.apply_fault net
    (Net.Link_down (tree_link.Topology.a.node, tree_link.Topology.b.node));
  Runtime.step rt;
  (* Ring minus one link = a line: spanning tree covers everything, nothing
     stays pruned. *)
  T_util.checki "pruned link reopened after failure" 0 (total_pruned net [ 1; 2; 3; 4 ])

let test_netlog_inverts_port_mod () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 2) in
  ignore (Net.poll net);
  let nl = Netlog.create net in
  let txn = Netlog.begin_txn nl ~app:"stp" in
  ignore (Netlog.apply nl txn (Command.set_no_flood 1 1 true));
  Alcotest.(check (list int)) "flag set inside txn" [ 1 ] (no_flood_ports net 1);
  Netlog.abort nl txn;
  Alcotest.(check (list int)) "flag restored by rollback" [] (no_flood_ports net 1)

let test_netlog_port_mod_rollback_preserves_prior_setting () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 2) in
  ignore (Net.poll net);
  ignore
    (Net.send net 1
       (Message.message (Message.Port_mod { pm_port_no = 1; pm_no_flood = true })));
  let nl = Netlog.create net in
  let txn = Netlog.begin_txn nl ~app:"stp" in
  ignore (Netlog.apply nl txn (Command.set_no_flood 1 1 false));
  Netlog.abort nl txn;
  Alcotest.(check (list int)) "pre-existing no_flood restored" [ 1 ]
    (no_flood_ports net 1)

let test_port_command_wire_roundtrip () =
  let cmd = Command.set_no_flood 3 7 true in
  Alcotest.check T_util.command_t "port command roundtrips" cmd
    (Legosdn.Wire.decode_command (Legosdn.Wire.encode_command cmd))

let test_port_mod_codec_roundtrip () =
  let msg =
    Message.message ~xid:9 (Message.Port_mod { pm_port_no = 2; pm_no_flood = true })
  in
  Alcotest.check T_util.message_t "port_mod roundtrips" msg
    (Codec.decode (Codec.encode msg));
  let desc =
    { Message.port_no = 1; hw_addr = 5; name = "eth1"; up = true; no_flood = true }
  in
  let st = Message.message (Message.Port_status (Message.Port_modify, desc)) in
  Alcotest.check T_util.message_t "no_flood survives port_desc codec" st
    (Codec.decode (Codec.encode st))

(* ---- ARP responder ---- *)

let arp_event sid in_port pkt =
  Event.Packet_in
    ( sid,
      {
        Message.pi_buffer_id = None;
        pi_in_port = in_port;
        pi_reason = Message.No_match;
        pi_packet = pkt;
      } )

(* What the responder learned shows in what it emits next: a request for
   a known address is answered straight back out of its ingress port, and
   one for an unknown address floods. *)
let answered_on ~in_port = function
  | [ Command.Packet (_, po) ] ->
      po.Message.po_actions = [ Action.Output in_port ]
      && Option.is_some po.Message.po_packet
  | _ -> false

let flooded = function
  | [ Command.Packet (_, po) ] ->
      po.Message.po_actions = [ Action.Output Types.port_flood ]
  | _ -> false

let test_arp_floods_unknown () =
  let st = Apps.Arp_responder.init () in
  let request = Packet.arp_request ~src_host:1 ~dst_host:2 in
  let st, commands =
    Apps.Arp_responder.handle App_sig.null_context st (arp_event 1 100 request)
  in
  T_util.checkb "flood command" true (flooded commands);
  let _, commands =
    Apps.Arp_responder.handle App_sig.null_context st
      (arp_event 2 101 (Packet.arp_request ~src_host:2 ~dst_host:1))
  in
  T_util.checkb "learned the requester" true
    (answered_on ~in_port:101 commands)

let test_arp_answers_known () =
  let st = Apps.Arp_responder.init () in
  (* h2's request teaches the responder h2's binding... *)
  let st, _ =
    Apps.Arp_responder.handle App_sig.null_context st
      (arp_event 2 100 (Packet.arp_request ~src_host:2 ~dst_host:1))
  in
  (* ...so h1 asking for h2 gets a direct reply out of its own port. *)
  let _, commands =
    Apps.Arp_responder.handle App_sig.null_context st
      (arp_event 1 100 (Packet.arp_request ~src_host:1 ~dst_host:2))
  in
  match commands with
  | [ Command.Packet (1, po) ] -> (
      T_util.checkb "unicast back out of ingress" true
        (po.Message.po_actions = [ Action.Output 100 ]);
      match po.Message.po_packet with
      | Some reply ->
          T_util.checkb "reply claims target's mac" true
            (reply.Packet.dl_src = Types.mac_of_host 2);
          T_util.checkb "addressed to requester" true
            (reply.Packet.dl_dst = Types.mac_of_host 1);
          T_util.checki "arp reply opcode" 2 reply.Packet.nw_proto
      | None -> Alcotest.fail "reply payload expected")
  | _ -> Alcotest.fail "one unicast packet_out expected"

let test_arp_ignores_ip_traffic () =
  let st = Apps.Arp_responder.init () in
  let st, commands =
    Apps.Arp_responder.handle App_sig.null_context st
      (arp_event 1 100 (T_util.tcp_packet 1 2))
  in
  T_util.checkb "no commands" true (commands = []);
  let _, commands =
    Apps.Arp_responder.handle App_sig.null_context st
      (arp_event 2 101 (Packet.arp_request ~src_host:2 ~dst_host:1))
  in
  T_util.checkb "nothing learned from tcp" true (flooded commands)

let test_arp_end_to_end () =
  let net, rt =
    runtime_over (Topo_gen.linear ~hosts_per_switch:1 2)
      [ (App_sig.app (module Apps.Arp_responder)); (App_sig.app (module Apps.Learning_switch)) ]
  in
  (* h2 announces itself, then h1 asks: the reply must be delivered to h1
     without ever flooding past s1. *)
  Net.inject net 2 (Packet.arp_request ~src_host:2 ~dst_host:1);
  Runtime.step rt;
  let delivered_before = (Net.stats net).Net.delivered in
  Net.inject net 1 (Packet.arp_request ~src_host:1 ~dst_host:2);
  Runtime.step rt;
  T_util.checkb "reply delivered to h1" true
    ((Net.stats net).Net.delivered > delivered_before)

let suite =
  [
    Alcotest.test_case "port_mod sets flag" `Quick test_port_mod_sets_flag;
    Alcotest.test_case "FLOOD honors NO_FLOOD, ALL ignores" `Quick
      test_flood_honors_no_flood_all_does_not;
    Alcotest.test_case "stp prunes a ring" `Quick test_stp_prunes_ring;
    Alcotest.test_case "stp leaves trees alone" `Quick test_stp_keeps_linear_untouched;
    Alcotest.test_case "stp stops broadcast storms" `Quick test_stp_stops_broadcast_storm;
    Alcotest.test_case "stp repairs after failure" `Quick
      test_stp_repairs_after_tree_link_failure;
    Alcotest.test_case "netlog inverts port_mod" `Quick test_netlog_inverts_port_mod;
    Alcotest.test_case "port_mod rollback keeps prior flag" `Quick
      test_netlog_port_mod_rollback_preserves_prior_setting;
    Alcotest.test_case "port command wire roundtrip" `Quick test_port_command_wire_roundtrip;
    Alcotest.test_case "port_mod codec roundtrip" `Quick test_port_mod_codec_roundtrip;
    Alcotest.test_case "arp floods unknown" `Quick test_arp_floods_unknown;
    Alcotest.test_case "arp answers known" `Quick test_arp_answers_known;
    Alcotest.test_case "arp ignores ip traffic" `Quick test_arp_ignores_ip_traffic;
    Alcotest.test_case "arp end to end" `Quick test_arp_end_to_end;
  ]
