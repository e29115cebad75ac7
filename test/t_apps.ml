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

let test_monitor_polls () =
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

(* ---- The state contract, over every bundled app ---- *)

(* A 3-switch ring: port 1 of each switch wired to port 2 of the next,
   host h on switch h at port 3 (host 4 is nowhere). The view's live
   switches and links follow the stream's switch and link events, as the
   controller's do, so the spanning tree has an off-tree link to prune
   and a repair to make. *)
let ring_links =
  List.concat_map
    (fun a ->
      let b = (a mod 3) + 1 in
      [
        { Event.src_switch = a; src_port = 1; dst_switch = b; dst_port = 2 };
        { Event.src_switch = b; src_port = 2; dst_switch = a; dst_port = 1 };
      ])
    [ 1; 2; 3 ]

type view = { mutable up : int list; mutable live : Event.link list }

let ring_view () = { up = [ 1; 2; 3 ]; live = List.sort compare ring_links }

let context_of view =
  {
    App_sig.null_context with
    switches = (fun () -> view.up);
    switch_ports =
      (fun sid -> if List.mem sid view.up then [ 1; 2; 3 ] else []);
    links = (fun () -> view.live);
    host_location =
      (fun mac ->
        List.find_map
          (fun h -> if Types.mac_of_host h = mac then Some (h, 3) else None)
          [ 1; 2; 3 ]);
  }

let follow view ev =
  let joins (l : Event.link) (m : Event.link) =
    (l.src_switch, l.src_port) = (m.src_switch, m.src_port)
    || (l.src_switch, l.src_port) = (m.dst_switch, m.dst_port)
  in
  match ev with
  | Event.Switch_up (sid, _) ->
      view.up <- List.sort_uniq compare (sid :: view.up)
  | Event.Switch_down sid ->
      view.up <- List.filter (( <> ) sid) view.up;
      view.live <-
        List.filter
          (fun (l : Event.link) -> l.src_switch <> sid && l.dst_switch <> sid)
          view.live
  | Event.Link_up l
    when List.mem l.src_switch view.up && List.mem l.dst_switch view.up ->
      view.live <-
        List.sort_uniq compare
          (List.filter (joins l) ring_links @ view.live)
  | Event.Link_down l ->
      view.live <- List.filter (fun m -> not (joins l m)) view.live
  | _ -> ()

let contract_event =
  let open QCheck2.Gen in
  let host = int_range 1 4 in
  let packet_in sid pkt =
    map
      (fun in_port ->
        Event.Packet_in
          ( sid,
            {
              Message.pi_buffer_id = None;
              pi_in_port = in_port;
              pi_reason = Message.No_match;
              pi_packet = pkt;
            } ))
      (int_range 1 3)
  in
  let desc up =
    { Message.port_no = 1; hw_addr = 0; name = "eth1"; up; no_flood = false }
  in
  let link = map (List.nth ring_links) (int_bound 5) in
  let* sid = int_range 1 3 in
  frequency
    [
      ( 4,
        let* src = host in
        let* dst = host in
        let* dport = oneofl [ 80; 23; 445 ] in
        packet_in sid (Packet.tcp ~src_host:src ~dst_host:dst ~dport ()) );
      ( 4,
        let* src = host in
        let* dst = host in
        let* op = oneofl [ 1; 2 ] in
        packet_in sid
          { (Packet.arp_request ~src_host:src ~dst_host:dst) with nw_proto = op }
      );
      (1, map (fun t -> Event.Tick t) (float_bound_exclusive 100.));
      ( 2,
        map
          (fun bytes ->
            Event.Stats_reply
              ( sid,
                0,
                Message.Aggregate_stats_reply { packets = 0; bytes; flows = 0 }
              ))
          (oneofl [ 0; 64; 128 ]) );
      ( 1,
        return
          (Event.Switch_up
             ( sid,
               {
                 Message.datapath_id = sid;
                 n_buffers = 0;
                 n_tables = 1;
                 ports =
                   List.map
                     (fun p -> { (desc true) with port_no = p })
                     [ 1; 2; 3 ];
               } )) );
      (1, return (Event.Switch_down sid));
      (1, map (fun l -> Event.Link_up l) link);
      (1, map (fun l -> Event.Link_down l) link);
      ( 1,
        map
          (fun up -> Event.Port_status (sid, Message.Port_modify, desc up))
          bool );
      ( 1,
        return
          (Event.Flow_removed
             ( sid,
               {
                 Message.fr_pattern = Ofp_match.any;
                 fr_cookie = 0L;
                 fr_priority = 0;
                 fr_reason = Message.Removed_idle;
                 fr_duration = 0;
                 fr_idle_timeout = 0;
                 fr_packet_count = 0;
                 fr_byte_count = 0;
               } )) );
    ]

let contract_stream =
  QCheck2.Gen.(list_size (int_range 1 40) contract_event)

let print_stream evs =
  String.concat "; " (List.map (Format.asprintf "%a" Event.pp) evs)

(* Drive one app through a stream on a fresh ring view; [check] sees each
   event with the instances before and after it. A handler that raises
   leaves the instance as it was. *)
let drive_app app events check =
  let view = ring_view () in
  let ctx = context_of view in
  let rec go inst = function
    | [] -> true
    | ev :: rest -> (
        follow view ev;
        match App_sig.handle inst ctx ev with
        | inst', _ -> check ev inst inst' && go inst' rest
        | exception _ -> go inst rest)
  in
  go (App_sig.instantiate app) events

(* App_sig's contract: an event that changes nothing hands back the state
   it was given, so the sandbox keeps its image without serializing it
   again. "Changes nothing" is read off the image. *)
let prop_unchanged_state_handed_back =
  QCheck2.Test.make ~name:"an event that changes no image hands back its state"
    ~count:100 ~print:print_stream contract_stream (fun events ->
      List.for_all
        (fun (name, app) ->
          drive_app app events (fun ev inst inst' ->
              inst' == inst
              || not
                   (Bytes.equal (App_sig.snapshot inst') (App_sig.snapshot inst))
              || QCheck2.Test.fail_reportf
                   "%s built a new state with an unchanged image on %a" name
                   Event.pp ev))
        Apps.Suite.all)

(* A restored state serializes to the bytes it was restored from, for
   every bundled app, plain and wrapped by the fault injector (whose state
   the voting panels re-seed), so a restore may keep the bytes it was
   handed as the state's image. *)
let prop_image_round_trip =
  let leaky =
    Apps.Bug_model.make (Apps.Bug_model.With_probability (0.2, 7))
      (Apps.Bug_model.Leak 16)
  in
  let apps =
    Apps.Suite.all
    @ List.map
        (fun (name, app) -> ("faulty " ^ name, Apps.Faulty.wrap ~bug:leaky app))
        Apps.Suite.all
  in
  QCheck2.Test.make ~name:"a restored state's image is the bytes it came from"
    ~count:100 ~print:print_stream contract_stream (fun events ->
      List.for_all
        (fun (name, app) ->
          drive_app app events (fun ev _ inst ->
              let image = App_sig.snapshot inst in
              Bytes.equal (App_sig.snapshot (App_sig.restore inst image)) image
              || QCheck2.Test.fail_reportf
                   "%s: the image after %a changed across a restore" name
                   Event.pp ev))
        apps)

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
    Alcotest.test_case "monitor polls" `Quick test_monitor_polls;
    Alcotest.test_case "faulty wrapper transparent" `Quick
      test_faulty_wrapper_transparent_until_trigger;
    Alcotest.test_case "probabilistic bug determinism" `Quick
      test_bug_probability_is_seed_deterministic;
    QCheck_alcotest.to_alcotest prop_unchanged_state_handed_back;
    QCheck_alcotest.to_alcotest prop_image_round_trip;
  ]
