module App_sig = Controller.App_sig
(* Software and data diversity (§3.4): three independently built versions
   of the routing application run side by side, each in its own sandbox;
   LegoSDN feeds them the same events and commits only the majority
   output. One version is byzantine (it emits a rule forwarding everything
   into an unwired port); the two healthy versions out-vote it, so the
   poisoned rule never even reaches the invariant checker.

   Run with: dune exec examples/diverse_voting.exe *)

open Netsim
module Event = Controller.Event
module Runtime = Legosdn.Runtime
module Metrics = Legosdn.Metrics

(* Every version answers to the panel's name, "router". *)
let byzantine_router () =
  Apps.Faulty.wrap
    ~bug:
      (Apps.Bug_model.make
         (Apps.Bug_model.On_kind Event.K_packet_in)
         Apps.Bug_model.Byzantine_blackhole)
    (App_sig.app (Apps.Router.variant "router"))

let drive net step =
  List.iter
    (fun (src, dst) ->
      Clock.advance_by (Net.clock net) 0.1;
      Net.inject net src (Openflow.Packet.tcp ~src_host:src ~dst_host:dst ());
      step ())
    [ (1, 2); (2, 1); (1, 3); (3, 1); (1, 2); (2, 3); (3, 2); (1, 3) ]

let report label rt net =
  let m = Runtime.metrics rt in
  Printf.printf
    "%-26s byzantine outputs blocked by checker: %2d | connectivity: %3.0f%%\n"
    label
    Metrics.(get m byzantine)
    (100. *. Net.connectivity net)

let () =
  Printf.printf "=== N-version diversity with majority voting ===\n\n";

  (* The byzantine version alone: Crash-Pad's invariant checker has to
     catch every poisoned transaction. *)
  let net = Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 3) in
  let rt = Runtime.create net [ byzantine_router () ] in
  Runtime.step rt;
  drive net (fun () -> Runtime.step rt);
  report "byzantine version alone:" rt net;

  (* The voting panel: the same byzantine version, seated between two
     healthy independently-built versions. The [bool] marks a version
     whose state a majority snapshot may be restored into. *)
  let config =
    {
      Runtime.default_config with
      Runtime.nversion =
        Some { Legosdn.Voter.default_config with nv_adaptive = false };
    }
  in
  let healthy = App_sig.app (module Apps.Router) in
  let nv_variants _ =
    Some
      [
        (healthy, true);
        (byzantine_router (), false);
        (App_sig.app (Apps.Router.variant ~prefer_high_ports:true "router"), true);
      ]
  in
  let net = Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 3) in
  let rt = Runtime.create ~config ~nv_variants net [ healthy ] in
  Runtime.step rt;
  drive net (fun () -> Runtime.step rt);
  report "3-version voting panel:" rt net;
  Printf.printf
    "\nThe byzantine output lost %d election(s) 2-to-1 and was discarded\n\
     before commit.\n"
    Metrics.(get (Runtime.metrics rt) nv_outvoted)
