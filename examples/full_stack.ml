module App_sig = Controller.App_sig
(* The realistic deployment: a whole application suite on a data-center
   fabric, with failures everywhere.

   Runs spanning-tree (flood pruning), proxy-ARP, a shortest-path router,
   a firewall and a monitor together on a k=4 fat-tree under LegoSDN, then
   injects the works: a data-dependent crash bug in the router, poisoned
   packets, a link failure and a switch reboot. The controller and every
   other app shrug it all off.

   Run with: dune exec examples/full_stack.exe *)

open Netsim
module Runtime = Legosdn.Runtime
module Sandbox = Legosdn.Sandbox
module Metrics = Legosdn.Metrics
module Event = Controller.Event

let apps () : Controller.App_sig.app list =
  [
    (App_sig.app (module Apps.Spanning_tree));
    (App_sig.app (module Apps.Arp_responder));
    Apps.Faulty.wrap
      ~bug:(Apps.Bug_model.make (Apps.Bug_model.On_tp_dst 6666) Apps.Bug_model.Crash)
      (App_sig.app (module Apps.Router));
    (App_sig.app (module Apps.Firewall));
    (App_sig.app (module Apps.Monitor));
  ]

let () =
  Printf.printf "=== Full stack on a fat-tree (k=4): 20 switches, 16 hosts ===\n\n";
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.fat_tree 4) in
  let rt = Runtime.create net (apps ()) in
  Runtime.step rt;

  let send src dst dport =
    Clock.advance_by clock 0.05;
    Net.inject net src (Openflow.Packet.tcp ~src_host:src ~dst_host:dst ~dport ());
    Runtime.step rt
  in

  (* ARP warm-up then cross-pod traffic. *)
  for h = 1 to 16 do
    Clock.advance_by clock 0.01;
    Net.inject net h (Openflow.Packet.arp_request ~src_host:h ~dst_host:((h mod 16) + 1));
    Runtime.step rt
  done;
  let active_pairs =
    [ (1, 9); (9, 1); (2, 14); (14, 2); (3, 7); (7, 3); (5, 16); (16, 5) ]
  in
  List.iter (fun (src, dst) -> send src dst 80) active_pairs;
  let served () =
    List.length (List.filter (fun (s, d) -> Net.reachable net s d) active_pairs)
  in
  Printf.printf "traffic flowing; %d/%d active flows pinned in hardware\n"
    (served ()) (List.length active_pairs);

  (* Chaos. *)
  send 1 9 6666 (* poisoned packet crashes the learning switch *);
  Net.apply_fault net (Net.Link_down (Topology.Switch 1, Topology.Switch 5));
  Runtime.step rt;
  Net.apply_fault net (Net.Switch_down 6);
  Runtime.step rt;
  send 2 14 6666;
  Net.apply_fault net (Net.Switch_up 6);
  Runtime.step rt;
  (* Rules now pointing at dead ports black-hole their flows until they
     idle out — let virtual time pass, then re-drive the flows so fresh
     paths pin along the repaired fabric. *)
  Clock.advance_by clock 61.;
  Net.tick net;
  Runtime.step rt;
  List.iter (fun (src, dst) -> send src dst 80) active_pairs;
  List.iter (fun (src, dst) -> send src dst 80) active_pairs;

  Printf.printf "\nafter one poisoned flow, a link failure and a switch reboot:\n";
  let m = Runtime.metrics rt in
  Printf.printf "  crashes absorbed      : %d\n" Metrics.(get m crashes);
  Printf.printf "  events ignored        : %d\n" Metrics.(get m ignored);
  Printf.printf "  events transformed    : %d\n" Metrics.(get m transformed);
  Printf.printf "  tickets filed         : %d\n" (List.length (Runtime.tickets rt));
  Printf.printf "  storm events shed     : %d (spanning tree at work)\n"
    (Runtime.events_shed rt);
  List.iter
    (fun box ->
      Printf.printf "  app %-18s alive=%b events=%d crashes=%d\n"
        (Sandbox.name box) (Sandbox.alive box) (Sandbox.events_handled box)
        (Sandbox.crash_count box))
    (Runtime.sandboxes rt);
  Printf.printf "  active flows served   : %d/%d\n" (served ())
    (List.length active_pairs);
  Printf.printf "\nThe controller never went down. That is the paper.\n"
