module App_sig = Controller.App_sig
(* Cross-layer consistency properties under random fault sequences: the
   controller's discovered view must track the physical truth, and the
   atomic-update screen must work on either transaction engine. *)

open Netsim
module Services = Controller.Services
module Event = Controller.Event

let fault_gen =
  QCheck2.Gen.(
    let* a = int_range 1 4 and* b = int_range 1 4 in
    oneof
      [
        return (Net.Link_down (Topology.Switch a, Topology.Switch b));
        return (Net.Link_up (Topology.Switch a, Topology.Switch b));
        map (fun s -> Net.Switch_down s) (int_range 1 4);
        map (fun s -> Net.Switch_up s) (int_range 1 4);
      ])

(* The physical truth: inter-switch links that are up and whose both
   endpoints are alive switches. *)
let physical_live_links net =
  let topo = Net.topology net in
  Topology.links topo
  |> List.filter_map (fun (l : Topology.link) ->
         match (l.a.node, l.b.node) with
         | Topology.Switch s1, Topology.Switch s2
           when l.up && (Net.switch net s1).Sw.up && (Net.switch net s2).Sw.up
           ->
             Some (min s1 s2, max s1 s2)
         | _ -> None)
  |> List.sort_uniq compare

let discovered_links services =
  Services.live_links services
  |> List.map (fun (l : Event.link) ->
         (min l.src_switch l.dst_switch, max l.src_switch l.dst_switch))
  |> List.sort_uniq compare

let prop_services_track_topology =
  QCheck2.Test.make
    ~name:"link discovery tracks physical truth under any fault sequence"
    ~count:150
    QCheck2.Gen.(list_size (int_range 1 15) fault_gen)
    (fun faults ->
      let clock = Clock.create () in
      let net = Net.create clock (Topo_gen.ring ~hosts_per_switch:1 4) in
      let services = Services.create clock (Net.topology net) in
      let drain () =
        ignore (Net.poll net |> List.concat_map (Services.ingest services))
      in
      drain ();
      List.for_all
        (fun fault ->
          Net.apply_fault net fault;
          drain ();
          discovered_links services = physical_live_links net)
        faults)

let prop_connected_switch_registry =
  QCheck2.Test.make ~name:"switch registry tracks liveness" ~count:150
    QCheck2.Gen.(list_size (int_range 1 12) fault_gen)
    (fun faults ->
      let clock = Clock.create () in
      let net = Net.create clock (Topo_gen.ring ~hosts_per_switch:1 4) in
      let services = Services.create clock (Net.topology net) in
      let drain () =
        ignore (Net.poll net |> List.concat_map (Services.ingest services))
      in
      drain ();
      List.for_all
        (fun fault ->
          Net.apply_fault net fault;
          drain ();
          let alive =
            List.filter
              (fun sid -> (Net.switch net sid).Sw.up)
              (Topology.switches (Net.topology net))
          in
          Services.connected_switches services = alive)
        faults)

let test_standby_under_live_faults () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.ring ~hosts_per_switch:1 4) in
  let config =
    {
      Legosdn.Runtime.default_config with
      Legosdn.Runtime.cluster =
        { Legosdn.Runtime.replicas = 3; election_lo = 0.15; election_hi = 0.3 };
    }
  in
  let c =
    Cluster.create ~config ~seed:7 net
      [ (App_sig.app (module Apps.Spanning_tree)); (App_sig.app (module Apps.Router)) ]
  in
  let drive pairs =
    List.iter
      (fun (src, dst) ->
        Clock.advance_by clock 0.5;
        Net.tick net;
        Net.inject net src (T_util.tcp_packet src dst);
        Cluster.tick c)
      pairs
  in
  drive [ (1, 3); (3, 1); (2, 4) ];
  (* A network fault and a leader death back to back: the leader dies on
     the first state-altering send of its reaction to the fault. *)
  Net.apply_fault net (Net.Link_down (Topology.Switch 1, Topology.Switch 2));
  Cluster.arm_kill c;
  drive [ (1, 3); (3, 1); (1, 3); (3, 1) ];
  T_util.checki "the leader died" 1 (Cluster.kills c);
  T_util.checki "a standby replica took over" 1 (Cluster.failovers c);
  let rt = Option.get (Cluster.active_runtime c) in
  T_util.checkb "new controller keeps serving" true
    (Legosdn.Runtime.events_processed rt > 0);
  T_util.checkb "traffic still flows" true (T_util.reachable net 1 3)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_services_track_topology;
    QCheck_alcotest.to_alcotest prop_connected_switch_registry;
    Alcotest.test_case "standby under live faults" `Quick
      test_standby_under_live_faults;
  ]
