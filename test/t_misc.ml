(* Odds and ends: storm shedding on the monolithic baseline, flood probes,
   app variants, switch-outage schedules. *)

open Openflow
open Netsim
module Monolithic = Controller.Monolithic
module Event = Controller.Event
module App_sig = Controller.App_sig

let test_monolithic_sheds_storms_too () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.ring ~hosts_per_switch:1 4) in
  let mono = Monolithic.create net [ (App_sig.app (module Apps.Hub)) ] in
  Monolithic.step mono;
  Net.inject net 1 (T_util.tcp_packet 1 3);
  Monolithic.step mono;
  T_util.checkb "storm guard engaged" true (Monolithic.events_shed mono > 0);
  T_util.checkb "controller survived the storm" true
    (Monolithic.status mono = Monolithic.Running)

let test_flood_probe_reaches_all_hosts () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.star ~hosts_per_switch:1 3) in
  ignore (Net.poll net);
  (* Flood rules everywhere: a probe must fan out to every other host. *)
  List.iter
    (fun sid ->
      ignore
        (Net.send net sid
           (Message.message
              (Message.Flow_mod
                 (Message.flow_add Ofp_match.any [ Action.Output Types.port_flood ])))))
    (Topology.switches (Net.topology net));
  let probe = T_util.trace net 1 (T_util.tcp_packet 1 2) in
  Alcotest.(check (list int)) "all other hosts reached" [ 2; 3 ]
    probe.Invariants.Snapshot.reached

let test_learning_switch_idle_variant () =
  let m = Apps.Learning_switch.with_idle_timeout 5 in
  let module V = (val m : App_sig.APP) in
  Alcotest.(check string) "variant named" "learning_switch(idle=5)" V.name;
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 2) in
  let rt = Legosdn.Runtime.create net [ App_sig.app m ] in
  Legosdn.Runtime.step rt;
  List.iter
    (fun (src, dst) ->
      Clock.advance_by clock 0.1;
      Net.inject net src (T_util.tcp_packet src dst);
      Legosdn.Runtime.step rt)
    [ (1, 2); (2, 1); (1, 2) ];
  T_util.checkb "path pinned" true (T_util.reachable net 1 2);
  (* The short idle timeout expires the rules quickly. *)
  Clock.advance_by clock 6.;
  Net.tick net;
  ignore (Net.poll net);
  T_util.checkb "rules idled out" false (T_util.reachable net 1 2)

let test_router_variants_differ_in_tie_breaking () =
  (* On a multipath topology the two team versions may pick different
     equal-length paths; at minimum they must both work. *)
  let run variant =
    let clock = Clock.create () in
    let net = Net.create clock (Topo_gen.mesh ~hosts_per_switch:1 4) in
    let rt = Legosdn.Runtime.create net [ App_sig.app variant ] in
    Legosdn.Runtime.step rt;
    List.iter
      (fun (src, dst) ->
        Clock.advance_by clock 0.1;
        Net.inject net src (T_util.tcp_packet src dst);
        Legosdn.Runtime.step rt)
      [ (1, 4); (4, 1); (1, 4) ];
    T_util.reachable net 1 4
  in
  T_util.checkb "team A routes" true (run (Apps.Router.variant "team_a"));
  T_util.checkb "team C routes" true
    (run (Apps.Router.variant ~prefer_high_ports:true "team_c"))

let test_switch_outage_schedule () =
  let faults = Workload.Failure_schedule.switch_outage 2 ~down_at:3. ~up_at:5. in
  T_util.checki "two timed faults" 2 (List.length faults);
  let report =
    Workload.Scenario.run
      (Workload.Scenario.make ~faults
         ~make_topology:(fun () -> Topo_gen.linear ~hosts_per_switch:1 3)
         ~duration:8.
         ~traffic:
           (Workload.Traffic.schedule
              (Workload.Traffic.all_pairs_once ~hosts:[ 1; 2; 3 ] ~start:0.5
                 ~spacing:0.2))
         ())
      ~make_driver:(fun net ->
        Workload.Scenario.legosdn_driver
          (Legosdn.Runtime.create net [ (App_sig.app (module Apps.Learning_switch)) ]))
  in
  Alcotest.(check (float 1e-9)) "controller unaffected by switch outage" 1.0
    report.Workload.Scenario.controller_availability

let test_event_pp_total () =
  (* Every event constructor renders without raising. *)
  let desc = { Message.port_no = 1; hw_addr = 0; name = "e"; up = true; no_flood = false } in
  let events =
    [
      Event.Switch_up (1, { Message.datapath_id = 1; n_buffers = 0; n_tables = 1; ports = [ desc ] });
      Event.Switch_down 1;
      Event.Port_status (1, Message.Port_add, desc);
      Event.Link_up { Event.src_switch = 1; src_port = 1; dst_switch = 2; dst_port = 1 };
      Event.Link_down { Event.src_switch = 1; src_port = 1; dst_switch = 2; dst_port = 1 };
      Event.Packet_in
        (1, { Message.pi_buffer_id = None; pi_in_port = 1; pi_reason = Message.No_match;
              pi_packet = T_util.tcp_packet 1 2 });
      Event.Flow_removed
        (1, { Message.fr_pattern = Ofp_match.any; fr_cookie = 0L; fr_priority = 0;
              fr_reason = Message.Removed_idle; fr_duration = 0; fr_idle_timeout = 0;
              fr_packet_count = 0; fr_byte_count = 0 });
      Event.Stats_reply (1, 0, Message.Description_reply "x");
      Event.Tick 0.;
    ]
  in
  List.iter
    (fun ev ->
      T_util.checkb "renders" true
        (String.length (Format.asprintf "%a" Event.pp ev) > 0))
    events;
  T_util.checki "all kinds covered by the sample" (List.length Event.all_kinds)
    (List.length (List.sort_uniq compare (List.map Event.kind_of events)))

let test_mac_ip_formatting () =
  Alcotest.(check string) "mac" "02:00:00:00:00:2a"
    (Types.mac_to_string (Types.mac_of_host 42));
  Alcotest.(check string) "ip" "10.0.1.4"
    (Types.ip_to_string (Types.ip_of_host 260));
  Alcotest.(check string) "reserved port name" "FLOOD"
    (Format.asprintf "%a" Types.pp_port Types.port_flood)

let suite =
  [
    Alcotest.test_case "monolithic sheds storms" `Quick test_monolithic_sheds_storms_too;
    Alcotest.test_case "flood probe fans out" `Quick test_flood_probe_reaches_all_hosts;
    Alcotest.test_case "learning switch idle variant" `Quick test_learning_switch_idle_variant;
    Alcotest.test_case "router variants both route" `Quick
      test_router_variants_differ_in_tie_breaking;
    Alcotest.test_case "switch outage schedule" `Quick test_switch_outage_schedule;
    Alcotest.test_case "event printers total" `Quick test_event_pp_total;
    Alcotest.test_case "address formatting" `Quick test_mac_ip_formatting;
  ]
