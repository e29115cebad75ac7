open Openflow
open Netsim

(* Install a chain of rules so h1 -> h2 works across a linear topology. *)
let program_linear net =
  (* linear 3: h1@s1:100, h2@s2:100, h3@s3:100; s1:1-s2:1, s2:2-s3:1 *)
  let add sid actions =
    ignore
      (Net.send net sid
         (Message.message
            (Message.Flow_mod
               (Message.flow_add
                  (Ofp_match.make ~dl_dst:(Types.mac_of_host 2) ())
                  actions))))
  in
  add 1 [ Action.Output 1 ];
  add 2 [ Action.Output 100 ]

let setup () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
  ignore (Net.poll net);
  (clock, net)

let test_initial_handshake () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear 2) in
  let connects =
    Net.poll net
    |> List.filter (function Net.Switch_connected _ -> true | _ -> false)
  in
  T_util.checki "one handshake per switch" 2 (List.length connects)

let test_inject_miss_generates_packet_in () =
  let _, net = setup () in
  Net.inject net 1 (T_util.tcp_packet 1 2);
  let punts =
    Net.poll net
    |> List.filter_map (function
         | Net.From_switch (sid, { Message.payload = Message.Packet_in _; _ }) ->
             Some sid
         | _ -> None)
  in
  Alcotest.(check (list int)) "miss at the access switch" [ 1 ] punts

let test_programmed_delivery () =
  let _, net = setup () in
  program_linear net;
  Net.inject net 1 (T_util.tcp_packet 1 2);
  let delivered =
    Net.poll net
    |> List.filter_map (function
         | Net.Delivered (h, _) -> Some h
         | _ -> None)
  in
  Alcotest.(check (list int)) "delivered to h2" [ 2 ] delivered;
  T_util.checki "stats count delivery" 1 (Net.stats net).Net.delivered

let test_probe_and_reachable () =
  let _, net = setup () in
  program_linear net;
  T_util.checkb "h1 reaches h2" true (T_util.reachable net 1 2);
  T_util.checkb "h2 cannot reach h1 (no reverse rules)" false
    (T_util.reachable net 2 1);
  let probe = T_util.trace net 1 (T_util.tcp_packet 1 2) in
  Alcotest.(check (list int)) "probe path switches" [ 1; 2 ]
    (List.map (fun (sid, _, _) -> sid) probe.Invariants.Snapshot.path)

let test_probe_does_not_mutate () =
  let _, net = setup () in
  program_linear net;
  let before = (Flow_table.entries (Net.switch net 1).Sw.table |> List.hd).Flow_entry.packet_count in
  ignore (T_util.trace net 1 (T_util.tcp_packet 1 2));
  let after = (Flow_table.entries (Net.switch net 1).Sw.table |> List.hd).Flow_entry.packet_count in
  T_util.checki "counters untouched by probe" before after

let connectivity net =
  Invariants.Checker.connectivity (Invariants.Snapshot.of_net net)

let test_connectivity_metric () =
  let _, net = setup () in
  T_util.checkb "nothing programmed: 0 connectivity" true
    (connectivity net = 0.);
  program_linear net;
  (* exactly 1 of 6 ordered pairs works *)
  Alcotest.(check (float 0.001)) "1/6 pairs" (1. /. 6.) (connectivity net)

let test_link_down_notifications () =
  let _, net = setup () in
  Net.apply_fault net (Net.Link_down (Topology.Switch 1, Topology.Switch 2));
  let port_downs =
    Net.poll net
    |> List.filter_map (function
         | Net.From_switch (sid, { Message.payload = Message.Port_status (_, d); _ })
           when not d.Message.up ->
             Some sid
         | _ -> None)
  in
  Alcotest.(check (list int)) "both ends report port down" [ 1; 2 ]
    (List.sort compare port_downs)

let test_link_down_kills_path () =
  let _, net = setup () in
  program_linear net;
  T_util.checkb "path up" true (T_util.reachable net 1 2);
  Net.apply_fault net (Net.Link_down (Topology.Switch 1, Topology.Switch 2));
  T_util.checkb "path broken" false (T_util.reachable net 1 2)

let test_switch_down_and_reboot () =
  let _, net = setup () in
  program_linear net;
  Net.apply_fault net (Net.Switch_down 2);
  let notes = Net.poll net in
  T_util.checkb "disconnect notification" true
    (List.exists (function Net.Switch_disconnected 2 -> true | _ -> false) notes);
  T_util.checkb "unreachable while down" false (T_util.reachable net 1 2);
  Net.apply_fault net (Net.Switch_up 2);
  let notes = Net.poll net in
  T_util.checkb "reconnect notification" true
    (List.exists (function Net.Switch_connected (2, _) -> true | _ -> false) notes);
  T_util.checki "reboot cleared the flow table" 0
    (Flow_table.size (Net.switch net 2).Sw.table);
  T_util.checkb "still unreachable (rules lost in reboot)" false
    (T_util.reachable net 1 2)

let test_loop_guard () =
  (* Program an actual forwarding loop on a ring and check the hop limit
     kills the packet and counts it. *)
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.ring 3) in
  ignore (Net.poll net);
  (* ring 3: s1:1-s2:1, s2:2-s3:1, s3:2-s1:2 — forward everything around. *)
  let add sid port =
    ignore
      (Net.send net sid
         (Message.message
            (Message.Flow_mod (Message.flow_add Ofp_match.any [ Action.Output port ]))))
  in
  add 1 1;
  add 2 2;
  add 3 2;
  Net.inject net 1 (T_util.tcp_packet 1 2);
  T_util.checkb "loop detected by hop limit" true ((Net.stats net).Net.looped > 0);
  let probe = T_util.trace net 1 (T_util.tcp_packet 1 2) in
  T_util.checkb "probe flags the loop" true probe.Invariants.Snapshot.looped

let test_expiry_tick () =
  let clock, net = setup () in
  ignore
    (Net.send net 1
       (Message.message
          (Message.Flow_mod
             (Message.flow_add ~hard_timeout:5 ~notify_when_removed:true
                Ofp_match.any [ Action.Output 1 ]))));
  Clock.advance_to clock 6.;
  Net.tick net;
  let removed =
    Net.poll net
    |> List.filter (function
         | Net.From_switch (1, { Message.payload = Message.Flow_removed _; _ }) -> true
         | _ -> false)
  in
  T_util.checki "flow removed notification surfaced" 1 (List.length removed)

let test_inject_on_dead_access_link () =
  let _, net = setup () in
  program_linear net;
  Net.apply_fault net (Net.Link_down (Topology.Host 1, Topology.Switch 1));
  ignore (Net.poll net);
  Net.inject net 1 (T_util.tcp_packet 1 2);
  let delivered =
    Net.poll net |> List.filter (function Net.Delivered _ -> true | _ -> false)
  in
  T_util.checki "nothing delivered through dead NIC" 0 (List.length delivered)

let suite =
  [
    Alcotest.test_case "initial handshake" `Quick test_initial_handshake;
    Alcotest.test_case "miss raises packet_in" `Quick test_inject_miss_generates_packet_in;
    Alcotest.test_case "programmed path delivers" `Quick test_programmed_delivery;
    Alcotest.test_case "probe and reachable" `Quick test_probe_and_reachable;
    Alcotest.test_case "probe is read-only" `Quick test_probe_does_not_mutate;
    Alcotest.test_case "connectivity metric" `Quick test_connectivity_metric;
    Alcotest.test_case "link down notifies both ends" `Quick test_link_down_notifications;
    Alcotest.test_case "link down breaks path" `Quick test_link_down_kills_path;
    Alcotest.test_case "switch down and reboot" `Quick test_switch_down_and_reboot;
    Alcotest.test_case "forwarding loop guard" `Quick test_loop_guard;
    Alcotest.test_case "flow expiry via tick" `Quick test_expiry_tick;
    Alcotest.test_case "dead access link" `Quick test_inject_on_dead_access_link;
  ]
