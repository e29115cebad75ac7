module App_sig = Controller.App_sig
(* Quickstart: the paper's core claim in one run.

   A learning switch with an injected deterministic bug (it crashes on the
   3rd packet-in) runs alongside a firewall, first on a monolithic
   FloodLight-style controller, then under LegoSDN. The monolithic stack
   dies with the app; LegoSDN rolls back, restores the app from its
   checkpoint, transforms/ignores the poisoned event, files a ticket, and
   everything keeps running.

   Run with: dune exec examples/quickstart.exe *)

module Clock = Netsim.Clock
module Net = Netsim.Net
module Topo_gen = Netsim.Topo_gen
module Monolithic = Controller.Monolithic
module Runtime = Legosdn.Runtime
module Sandbox = Legosdn.Sandbox

let buggy_learning_switch () =
  Apps.Faulty.wrap
    ~bug:(Apps.Bug_model.crash_on_nth Controller.Event.K_packet_in 3)
    (App_sig.app (module Apps.Learning_switch))

let apps () : Controller.App_sig.app list =
  [ buggy_learning_switch (); (App_sig.app (module Apps.Firewall)) ]

(* Drive some host-pair traffic through a controller, stepping after each
   injection so packet-ins are dispatched. *)
let send_traffic net step =
  let pairs = [ (1, 2); (2, 1); (1, 3); (3, 1); (2, 3) ] in
  List.iter
    (fun (src, dst) ->
      Clock.advance_by (Net.clock net) 0.1;
      Net.inject net src (Openflow.Packet.tcp ~src_host:src ~dst_host:dst ());
      step ())
    pairs

let () =
  Printf.printf "=== LegoSDN quickstart ===\n\n";

  (* 1. Monolithic baseline: fate sharing in action. *)
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
  let mono = Monolithic.create net (apps ()) in
  Monolithic.step mono;
  send_traffic net (fun () -> Monolithic.step mono);
  (match Monolithic.status mono with
  | Monolithic.Crashed info ->
      Printf.printf
        "monolithic: controller CRASHED at t=%.1fs — culprit %s (%s)\n"
        info.Monolithic.at info.Monolithic.culprit info.Monolithic.detail;
      Printf.printf
        "monolithic: the firewall died too, though it has no bug.\n\n"
  | Monolithic.Running ->
      Printf.printf "monolithic: unexpectedly survived?!\n\n");

  (* 2. LegoSDN: same apps, same traffic, same bug. *)
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
  let lego = Runtime.create net (apps ()) in
  Runtime.step lego;
  send_traffic net (fun () -> Runtime.step lego);

  Printf.printf "legosdn: controller still RUNNING.\n";
  List.iter
    (fun box ->
      Printf.printf "legosdn: app %-16s alive=%b events=%d crashes=%d\n"
        (Sandbox.name box) (Sandbox.alive box) (Sandbox.events_handled box)
        (Sandbox.crash_count box))
    (Runtime.sandboxes lego);
  let m = Runtime.metrics lego in
  Printf.printf
    "legosdn: recovered %d crash(es); %d event(s) transformed, %d ignored\n"
    Legosdn.Metrics.(get m crashes)
    Legosdn.Metrics.(get m transformed)
    Legosdn.Metrics.(get m ignored);
  Printf.printf "\nProblem tickets filed for the developer:\n";
  List.iter
    (fun t -> Format.printf "%a@." Legosdn.Ticket.pp t)
    (Runtime.tickets lego);
  Printf.printf "\nNetwork connectivity right now: %.0f%% of host pairs\n"
    (100.
     *. Invariants.Checker.connectivity (Invariants.Snapshot.of_net net))
