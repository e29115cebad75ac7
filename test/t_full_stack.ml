module App_sig = Controller.App_sig
(* Whole-suite integration on data-center topologies: five applications
   together on a fat-tree, with failures, mirroring examples/full_stack.ml
   as assertions. *)

open Netsim
module Runtime = Legosdn.Runtime
module Sandbox = Legosdn.Sandbox
module Metrics = Legosdn.Metrics
module Event = Controller.Event

let suite_apps ?bug () : Controller.App_sig.app list =
  let router : Controller.App_sig.app =
    match bug with
    | None -> (App_sig.app (module Apps.Router))
    | Some bug -> Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Router))
  in
  [
    (App_sig.app (module Apps.Spanning_tree));
    (App_sig.app (module Apps.Arp_responder));
    router;
    (App_sig.app (module Apps.Firewall));
    (App_sig.app (module Apps.Monitor));
  ]

let active_pairs =
  [ (1, 9); (9, 1); (2, 14); (14, 2); (3, 7); (7, 3); (5, 16); (16, 5) ]

let setup ?bug () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.fat_tree 4) in
  let rt = Runtime.create net (suite_apps ?bug ()) in
  Runtime.step rt;
  (clock, net, rt)

let warm clock net rt =
  for h = 1 to 16 do
    Clock.advance_by clock 0.01;
    Net.inject net h (Openflow.Packet.arp_request ~src_host:h ~dst_host:((h mod 16) + 1));
    Runtime.step rt
  done;
  List.iter
    (fun (src, dst) ->
      Clock.advance_by clock 0.05;
      Net.inject net src (Openflow.Packet.tcp ~src_host:src ~dst_host:dst ());
      Runtime.step rt)
    active_pairs

let served net =
  List.length (List.filter (fun (s, d) -> Net.reachable net s d) active_pairs)

let test_suite_programs_fat_tree () =
  let clock, net, rt = setup () in
  warm clock net rt;
  T_util.checki "all active flows pinned" (List.length active_pairs) (served net);
  T_util.checki "no storms despite cycles everywhere" 0 (Runtime.events_shed rt);
  (* The fabric stays invariant-clean. *)
  Alcotest.(check (list string)) "no violations" []
    (List.map Invariants.Checker.violation_kind
       (Invariants.Checker.check (Invariants.Snapshot.of_net net)))

let test_suite_survives_chaos () =
  let bug =
    Apps.Bug_model.make (Apps.Bug_model.On_tp_dst 6666) Apps.Bug_model.Crash
  in
  let clock, net, rt = setup ~bug () in
  warm clock net rt;
  (* Poison a not-yet-routed pair so the packet actually reaches the
     controller (routed destinations are matched in hardware), then break
     things. *)
  Net.inject net 4 (Openflow.Packet.tcp ~src_host:4 ~dst_host:10 ~dport:6666 ());
  Runtime.step rt;
  Net.apply_fault net (Net.Link_down (Topology.Switch 1, Topology.Switch 5));
  Runtime.step rt;
  Net.apply_fault net (Net.Switch_down 6);
  Runtime.step rt;
  Net.apply_fault net (Net.Switch_up 6);
  Runtime.step rt;
  (* Re-drive traffic over the repaired fabric. *)
  List.iter
    (fun (src, dst) ->
      Clock.advance_by clock 0.05;
      Net.inject net src (Openflow.Packet.tcp ~src_host:src ~dst_host:dst ());
      Runtime.step rt)
    (active_pairs @ active_pairs);
  let m = Runtime.metrics rt in
  T_util.checkb "router crash absorbed" true (Metrics.(get m crashes) >= 1);
  List.iter
    (fun box -> T_util.checkb "every app alive" true (Sandbox.alive box))
    (Runtime.sandboxes rt);
  T_util.checki "all active flows re-served" (List.length active_pairs) (served net)

let test_firewall_holds_on_fat_tree () =
  let clock, net, rt = setup () in
  warm clock net rt;
  let delivered_before = (Net.stats net).Net.delivered in
  Clock.advance_by clock 0.05;
  Net.inject net 1 (Openflow.Packet.tcp ~src_host:1 ~dst_host:9 ~dport:23 ());
  Runtime.step rt;
  T_util.checki "telnet blocked across pods" delivered_before
    (Net.stats net).Net.delivered

let test_jellyfish_suite () =
  (* Same suite on a random-regular topology: flows pin, no storms. *)
  let clock = Clock.create () in
  let net =
    Net.create clock (Topo_gen.jellyfish ~seed:4 ~switches:10 ~degree:4 ())
  in
  let rt = Runtime.create net (suite_apps ()) in
  Runtime.step rt;
  for h = 1 to 10 do
    Clock.advance_by clock 0.01;
    Net.inject net h (Openflow.Packet.arp_request ~src_host:h ~dst_host:((h mod 10) + 1));
    Runtime.step rt
  done;
  let pairs = [ (1, 6); (6, 1); (3, 9); (9, 3) ] in
  List.iter
    (fun (src, dst) ->
      Clock.advance_by clock 0.05;
      Net.inject net src (Openflow.Packet.tcp ~src_host:src ~dst_host:dst ());
      Runtime.step rt)
    pairs;
  T_util.checki "flows pinned on jellyfish" 4
    (List.length (List.filter (fun (s, d) -> Net.reachable net s d) pairs));
  T_util.checki "no storms" 0 (Runtime.events_shed rt)

let suite =
  [
    Alcotest.test_case "suite programs a fat-tree" `Quick test_suite_programs_fat_tree;
    Alcotest.test_case "suite survives chaos" `Quick test_suite_survives_chaos;
    Alcotest.test_case "firewall holds across pods" `Quick test_firewall_holds_on_fat_tree;
    Alcotest.test_case "suite on jellyfish" `Quick test_jellyfish_suite;
  ]
