module App_sig = Controller.App_sig
open Openflow
open Netsim
module Runtime = Legosdn.Runtime
module Event = Controller.Event
module Monolithic = Controller.Monolithic

(* Most app behaviour is observed end-to-end through a runtime over a real
   simulated network: inject traffic, step, inspect the data plane. *)

let drive net step pairs =
  List.iter
    (fun (src, dst) ->
      Clock.advance_by (Net.clock net) 0.1;
      Net.inject net src (T_util.tcp_packet src dst);
      step ())
    pairs

let runtime_over topo apps =
  let clock = Clock.create () in
  let net = Net.create clock topo in
  let rt = Runtime.create net apps in
  Runtime.step rt;
  (net, rt)

let test_hub_floods_but_never_installs () =
  let net, rt = runtime_over (Topo_gen.linear ~hosts_per_switch:1 3) [ (App_sig.app (module Apps.Hub)) ] in
  drive net (fun () -> Runtime.step rt) [ (1, 2); (1, 2); (1, 2) ];
  List.iter
    (fun sid ->
      T_util.checki "hub installs nothing" 0
        (Flow_table.size (Net.switch net sid).Sw.table))
    [ 1; 2; 3 ];
  (* Every packet is still delivered — through the controller each time. *)
  T_util.checkb "traffic delivered by flooding" true
    ((Net.stats net).Net.delivered >= 3)

let test_flooder_installs_flood_rules () =
  let net, rt =
    runtime_over (Topo_gen.linear ~hosts_per_switch:1 2) [ (App_sig.app (module Apps.Flooder)) ]
  in
  drive net (fun () -> Runtime.step rt) [ (1, 2) ];
  T_util.checkb "flood rule installed at ingress" true
    (Flow_table.size (Net.switch net 1).Sw.table >= 1);
  (* Second packet of the same flow is forwarded in hardware: no new
     packet-in from s1. *)
  let before = (Net.stats net).Net.packet_ins in
  Net.inject net 1 (T_util.tcp_packet 1 2);
  Runtime.step rt;
  let after = (Net.stats net).Net.packet_ins in
  T_util.checkb "subsequent packets skip the controller at s1" true
    (after - before < 2)

let test_learning_switch_converges () =
  let net, rt =
    runtime_over (Topo_gen.linear ~hosts_per_switch:1 3)
      [ (App_sig.app (module Apps.Learning_switch)) ]
  in
  drive net (fun () -> Runtime.step rt) [ (1, 2); (2, 1); (1, 2) ];
  T_util.checkb "forward path pinned" true (T_util.reachable net 1 2);
  T_util.checkb "reverse path pinned" true (T_util.reachable net 2 1)

let test_learning_switch_forgets_on_switch_down () =
  let _, rt =
    runtime_over (Topo_gen.linear ~hosts_per_switch:1 2)
      [ (App_sig.app (module Apps.Learning_switch)) ]
  in
  Runtime.dispatch_event rt (Event.Switch_down 1);
  (* No assertion on internals — just that the handler runs clean. *)
  T_util.checki "no crashes" 0 Legosdn.Metrics.(get (Runtime.metrics rt) crashes)

let test_router_installs_path_rules () =
  let net, rt =
    runtime_over (Topo_gen.linear ~hosts_per_switch:1 3) [ (App_sig.app (module Apps.Router)) ]
  in
  (* First exchange seeds the device manager (flooding), second installs. *)
  drive net (fun () -> Runtime.step rt) [ (1, 3); (3, 1); (1, 3) ];
  T_util.checkb "end-to-end path programmed" true (T_util.reachable net 1 3);
  (* Path rules exist on the transit switch too. *)
  T_util.checkb "transit switch programmed" true
    (Flow_table.size (Net.switch net 2).Sw.table >= 1)

let test_router_tears_down_on_link_failure () =
  let net, rt =
    runtime_over (Topo_gen.linear ~hosts_per_switch:1 3) [ (App_sig.app (module Apps.Router)) ]
  in
  drive net (fun () -> Runtime.step rt) [ (1, 3); (3, 1); (1, 3) ];
  T_util.checkb "programmed" true (T_util.reachable net 1 3);
  Net.apply_fault net (Net.Link_down (Topology.Switch 2, Topology.Switch 3));
  Runtime.step rt;
  (* Routes through the dead link were withdrawn, not left black-holing. *)
  let snap = Invariants.Snapshot.of_net net in
  Alcotest.(check (list string)) "no black holes after withdrawal" []
    (List.map Invariants.Checker.violation_kind
       (Invariants.Checker.check
          ~invariants:[ Invariants.Checker.Black_hole_freedom ] snap))

let test_firewall_blocks_telnet () =
  let net, rt =
    runtime_over (Topo_gen.linear ~hosts_per_switch:1 2)
      [ (App_sig.app (module Apps.Firewall)); (App_sig.app (module Apps.Learning_switch)) ]
  in
  (* ACL rules pushed at handshake. *)
  T_util.checkb "ACLs installed" true
    (Flow_table.size (Net.switch net 1).Sw.table >= 2);
  (* Telnet never arrives even though the learning switch would route it. *)
  drive net (fun () -> Runtime.step rt) [ (1, 2); (2, 1) ];
  let delivered_before = (Net.stats net).Net.delivered in
  Net.inject net 1
    (Packet.tcp ~src_host:1 ~dst_host:2 ~dport:23 ());
  Runtime.step rt;
  T_util.checki "telnet dropped in hardware" delivered_before
    (Net.stats net).Net.delivered

let test_firewall_web_unaffected () =
  let net, rt =
    runtime_over (Topo_gen.linear ~hosts_per_switch:1 2)
      [ (App_sig.app (module Apps.Firewall)); (App_sig.app (module Apps.Learning_switch)) ]
  in
  drive net (fun () -> Runtime.step rt) [ (1, 2); (2, 1); (1, 2) ];
  T_util.checkb "web traffic still flows" true (T_util.reachable net 1 2)

let test_load_balancer_spreads_flows () =
  (* Star: leaves s2..s4 each hang off hub s1; hub has 3 uplinks. Traffic
     entering the hub from different flows should spread. *)
  let net, rt =
    runtime_over (Topo_gen.star ~hosts_per_switch:1 3) [ (App_sig.app (module Apps.Load_balancer)) ]
  in
  (* Hosts live on leaves; drive distinct flows through the hub. *)
  List.iteri
    (fun i dst ->
      Clock.advance_by (Net.clock net) 0.1;
      Net.inject net 1 (Packet.tcp ~src_host:1 ~dst_host:dst ~sport:(2000 + i) ());
      Runtime.step rt)
    [ 2; 3; 2; 3 ];
  (* The hub's assignments must use more than one uplink. *)
  let hub_rules = Flow_table.entries (Net.switch net 1).Sw.table in
  let ports_used =
    hub_rules
    |> List.concat_map (fun (e : Flow_entry.t) -> Action.outputs e.actions)
    |> List.sort_uniq compare
  in
  T_util.checkb "more than one uplink used" true (List.length ports_used > 1)

let test_monitor_counts_and_never_regresses () =
  let net, rt =
    runtime_over (Topo_gen.linear ~hosts_per_switch:1 2)
      [ (App_sig.app (module Apps.Learning_switch)); (App_sig.app (module Apps.Monitor)) ]
  in
  drive net (fun () -> Runtime.step rt) [ (1, 2); (2, 1); (1, 2) ];
  Runtime.tick rt;
  Runtime.tick rt;
  let monitor = Option.get (Runtime.sandbox rt "monitor") in
  T_util.checkb "monitor polled" true (Legosdn.Sandbox.events_handled monitor > 2)

let test_faulty_wrapper_transparent_until_trigger () =
  let bug = Apps.Bug_model.crash_on_nth Event.K_packet_in 100 in
  let net, mono =
    let clock = Clock.create () in
    let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 2) in
    let mono =
      Monolithic.create net [ Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Learning_switch)) ]
    in
    Monolithic.step mono;
    (net, mono)
  in
  drive net (fun () -> Monolithic.step mono) [ (1, 2); (2, 1); (1, 2) ];
  T_util.checkb "wrapped app behaves identically below trigger" true
    (Monolithic.status mono = Monolithic.Running && T_util.reachable net 1 2)

let test_bug_probability_is_seed_deterministic () =
  let trigger p seed =
    let bug = Apps.Bug_model.make (Apps.Bug_model.With_probability (p, seed)) Apps.Bug_model.Crash in
    let m = Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Hub)) in
    let module M = (val m : Controller.App_sig.INTENT_APP) in
    let crashes = ref 0 in
    let st = ref (M.init ()) in
    for i = 1 to 50 do
      match
        M.handle App_sig.null_context !st
          (Event.Packet_in
             ( 1,
               {
                 Message.pi_buffer_id = None;
                 pi_in_port = 1;
                 pi_reason = Message.No_match;
                 pi_packet = T_util.tcp_packet 1 (1 + (i mod 3));
               } ))
      with
      | st', _ -> st := st'
      | exception _ -> incr crashes
    done;
    !crashes
  in
  let a = trigger 0.3 42 in
  T_util.checkb "p=0.3 crashes sometimes" true (a > 0 && a < 50);
  T_util.checki "p=0 never crashes" 0 (trigger 0.0 42)

let suite =
  [
    Alcotest.test_case "hub floods, never installs" `Quick test_hub_floods_but_never_installs;
    Alcotest.test_case "flooder installs flood rules" `Quick test_flooder_installs_flood_rules;
    Alcotest.test_case "learning switch converges" `Quick test_learning_switch_converges;
    Alcotest.test_case "learning switch handles switch_down" `Quick
      test_learning_switch_forgets_on_switch_down;
    Alcotest.test_case "router installs path rules" `Quick test_router_installs_path_rules;
    Alcotest.test_case "router withdraws on link failure" `Quick
      test_router_tears_down_on_link_failure;
    Alcotest.test_case "firewall blocks telnet" `Quick test_firewall_blocks_telnet;
    Alcotest.test_case "firewall passes web" `Quick test_firewall_web_unaffected;
    Alcotest.test_case "load balancer spreads flows" `Quick test_load_balancer_spreads_flows;
    Alcotest.test_case "monitor polls" `Quick test_monitor_counts_and_never_regresses;
    Alcotest.test_case "faulty wrapper transparent" `Quick
      test_faulty_wrapper_transparent_until_trigger;
    Alcotest.test_case "probabilistic bug determinism" `Quick
      test_bug_probability_is_seed_deterministic;
  ]
