module App_sig = Controller.App_sig
(* Resilient routing: the Equivalence-Compromise policy in action.

   A shortest-path router on a ring has a bug: it crashes when handling
   link-down events. On a monolithic controller that is fatal for the
   whole stack at the first link failure. Under LegoSDN, Crash-Pad
   transforms the poisoned link-down into the equivalent switch-down
   (which the router handles fine — it tears down its routes and lets
   traffic re-trigger path computation over the surviving ring arc).

   Run with: dune exec examples/resilient_routing.exe *)

open Netsim
module Event = Controller.Event
module Runtime = Legosdn.Runtime
module Monolithic = Controller.Monolithic

let buggy_router () =
  Apps.Faulty.wrap
    ~bug:(Apps.Bug_model.crash_on Event.K_link_down)
    (App_sig.app (module Apps.Router))

let drive net step pairs =
  List.iter
    (fun (src, dst) ->
      Clock.advance_by (Net.clock net) 0.1;
      Net.inject net src (Openflow.Packet.tcp ~src_host:src ~dst_host:dst ());
      step ())
    pairs

(* Warm up the device manager and pin h1 <-> h3 paths. *)
let warmup = [ (1, 3); (3, 1); (1, 3); (3, 1) ]

let () =
  Printf.printf "=== Resilient routing under link failure ===\n\n";

  (* Monolithic: the first link-down kills everything. *)
  let net = Net.create (Clock.create ()) (Topo_gen.ring ~hosts_per_switch:1 4) in
  let mono = Monolithic.create net [ buggy_router () ] in
  Monolithic.step mono;
  drive net (fun () -> Monolithic.step mono) warmup;
  Printf.printf "monolithic: h1->h3 reachable before failure: %b\n"
    (Net.reachable net 1 3);
  Net.apply_fault net (Net.Link_down (Topology.Switch 1, Topology.Switch 2));
  Monolithic.step mono;
  (match Monolithic.status mono with
  | Monolithic.Crashed info ->
      Printf.printf "monolithic: controller DEAD on link failure (%s)\n"
        info.Monolithic.detail
  | Monolithic.Running -> Printf.printf "monolithic: survived?!\n");
  drive net (fun () -> Monolithic.step mono) [ (1, 3) ];
  Printf.printf "monolithic: network can no longer adapt.\n\n";

  (* LegoSDN: same bug, same failure. *)
  let net = Net.create (Clock.create ()) (Topo_gen.ring ~hosts_per_switch:1 4) in
  let lego = Runtime.create net [ buggy_router () ] in
  Runtime.step lego;
  drive net (fun () -> Runtime.step lego) warmup;
  Printf.printf "legosdn: h1->h3 reachable before failure: %b\n"
    (Net.reachable net 1 3);
  Net.apply_fault net (Net.Link_down (Topology.Switch 1, Topology.Switch 2));
  Runtime.step lego;
  let m = Runtime.metrics lego in
  Printf.printf
    "legosdn: link failed; router crash transformed (%d transformation(s), %d crash(es) absorbed)\n"
    Legosdn.Metrics.(get m transformed)
    Legosdn.Metrics.(get m crashes);
  (* Traffic re-triggers routing around the surviving arc of the ring. *)
  drive net (fun () -> Runtime.step lego) [ (1, 3); (3, 1); (1, 3) ];
  Printf.printf "legosdn: h1->h3 reachable after re-routing: %b\n"
    (Net.reachable net 1 3);
  Printf.printf "\nTickets:\n";
  List.iter
    (fun t -> Format.printf "%a@." Legosdn.Ticket.pp t)
    (Runtime.tickets lego)
