open Openflow
open Netsim
module Services = Controller.Services
module Event = Controller.Event

let test_handshake_produces_switch_up_and_links () =
  let _, _, services, events = T_util.net_with_services (Topo_gen.linear 3) in
  let ups =
    List.filter (function Event.Switch_up _ -> true | _ -> false) events
  in
  T_util.checki "three switch_up events" 3 (List.length ups);
  (* 2 physical inter-switch links. *)
  let link_ups =
    List.filter (function Event.Link_up _ -> true | _ -> false) events
  in
  T_util.checki "two discovered links" 2 (List.length link_ups);
  T_util.checki "live_links lists both directions" 4
    (List.length (Services.live_links services));
  Alcotest.(check (list int)) "connected switches" [ 1; 2; 3 ]
    (Services.connected_switches services)

let test_link_down_event_derived_once () =
  let _, net, services, _ = T_util.net_with_services (Topo_gen.linear 2) in
  Net.apply_fault net (Net.Link_down (Topology.Switch 1, Topology.Switch 2));
  let events = Net.poll net |> List.concat_map (Services.ingest services) in
  let downs =
    List.filter (function Event.Link_down _ -> true | _ -> false) events
  in
  T_util.checki "exactly one link_down despite two port_status" 1
    (List.length downs);
  T_util.checki "no live links left" 0 (List.length (Services.live_links services))

let test_link_up_rediscovery () =
  let _, net, services, _ = T_util.net_with_services (Topo_gen.linear 2) in
  Net.apply_fault net (Net.Link_down (Topology.Switch 1, Topology.Switch 2));
  ignore (Net.poll net |> List.concat_map (Services.ingest services));
  Net.apply_fault net (Net.Link_up (Topology.Switch 1, Topology.Switch 2));
  let events = Net.poll net |> List.concat_map (Services.ingest services) in
  T_util.checki "one link_up rediscovered" 1
    (List.length (List.filter (function Event.Link_up _ -> true | _ -> false) events));
  T_util.checki "live links restored" 2 (List.length (Services.live_links services))

let test_switch_down_removes_links_and_registration () =
  let _, net, services, _ = T_util.net_with_services (Topo_gen.linear 3) in
  Net.apply_fault net (Net.Switch_down 2);
  let events = Net.poll net |> List.concat_map (Services.ingest services) in
  T_util.checkb "switch_down event" true
    (List.exists (function Event.Switch_down 2 -> true | _ -> false) events);
  Alcotest.(check (list int)) "s2 deregistered" [ 1; 3 ]
    (Services.connected_switches services);
  T_util.checki "its links are gone" 0 (List.length (Services.live_links services))

let test_host_learning () =
  let _, net, services, _ =
    T_util.net_with_services (Topo_gen.linear ~hosts_per_switch:1 2)
  in
  T_util.checkb "unknown before traffic" true
    (Services.host_location services (Types.mac_of_host 1) = None);
  Net.inject net 1 (T_util.tcp_packet 1 2);
  ignore (Net.poll net |> List.concat_map (Services.ingest services));
  (match Services.host_location services (Types.mac_of_host 1) with
  | Some (sid, port) ->
      T_util.checki "learned switch" 1 sid;
      T_util.checki "learned port" 100 port
  | None -> Alcotest.fail "h1 should be learned from its packet-in")

let test_no_learning_on_core_ports () =
  let _, net, services, _ =
    T_util.net_with_services (Topo_gen.linear ~hosts_per_switch:1 2)
  in
  (* Force the packet to traverse to s2 (flood at s1), producing a
     packet-in at s2 whose ingress is an inter-switch port. *)
  ignore
    (Net.send net 1
       (Message.message
          (Message.Flow_mod
             (Message.flow_add Ofp_match.any [ Action.Output Types.port_flood ]))));
  Net.inject net 1 (T_util.tcp_packet 1 2);
  ignore (Net.poll net |> List.concat_map (Services.ingest services));
  (match Services.host_location services (Types.mac_of_host 1) with
  | Some (sid, _) -> T_util.checki "still located at its edge switch" 1 sid
  | None ->
      (* Acceptable: only the s2 copy punted, and s2 must not learn h1 on a
         core port. *)
      ())

let test_context_snapshot () =
  let _, _, services, _ = T_util.net_with_services (Topo_gen.star 2) in
  let ctx = Services.context services in
  Alcotest.(check (list int)) "context switches" [ 1; 2; 3 ]
    (Controller.App_sig.switches ctx);
  T_util.checkb "hub has ports" true (Controller.App_sig.switch_ports ctx 1 <> [])

(* ---------------- the cached view ---------------- *)

(* Faults on a 4-switch ring, drawn so that switches come up with and
   without neighbours to discover, ports go down on switch and host
   links, and links go down between neighbours and non-neighbours. *)
let gen_view_fault =
  QCheck.Gen.(
    let sw = int_range 1 4 in
    let port = oneofl [ 1; 2; 100 ] in
    let node = map (fun s -> Topology.Switch s) sw in
    oneof
      [
        map (fun s -> Net.Switch_down s) sw;
        map (fun s -> Net.Switch_up s) sw;
        map2 (fun s p -> Net.Port_down (s, p)) sw port;
        map2 (fun s p -> Net.Port_up (s, p)) sw port;
        map2 (fun a b -> Net.Link_down (a, b)) node node;
        map2 (fun a b -> Net.Link_up (a, b)) node node;
      ])

let print_view_fault =
  let node = function
    | Topology.Switch s -> Printf.sprintf "s%d" s
    | Topology.Host h -> Printf.sprintf "h%d" h
  in
  function
  | Net.Switch_down s -> Printf.sprintf "s%d down" s
  | Net.Switch_up s -> Printf.sprintf "s%d up" s
  | Net.Port_down (s, p) -> Printf.sprintf "s%d:%d down" s p
  | Net.Port_up (s, p) -> Printf.sprintf "s%d:%d up" s p
  | Net.Link_down (a, b) -> Printf.sprintf "%s-%s down" (node a) (node b)
  | Net.Link_up (a, b) -> Printf.sprintf "%s-%s up" (node a) (node b)
  | Net.Channel_partition _ | Net.Channel_heal _ | Net.Channel_loss _ -> "?"

(* Two services read their view after every fault: one ingests the
   notifications, one observes the events the first dispatched. Each must
   read what a fresh service that observes the whole log and builds its
   view once reads: switches, links and the first hop of every pair. *)
let cached_view_prop faults =
  let clock, net, ingesting, events =
    T_util.net_with_services (Topo_gen.ring 4)
  in
  let fresh () = Services.create clock (Net.topology net) in
  let observing = fresh () in
  List.iter (Services.observe observing) events;
  let log = ref events in
  let switches = [ 1; 2; 3; 4 ] in
  let same_view s =
    let scratch = fresh () in
    List.iter (Services.observe scratch) !log;
    Services.connected_switches s = Services.connected_switches scratch
    && Services.live_links s = Services.live_links scratch
    && List.for_all
         (fun a ->
           List.for_all
             (fun b ->
               Services.first_hop s a b = Services.first_hop scratch a b)
             switches)
         switches
  in
  List.for_all
    (fun fault ->
      Net.apply_fault net fault;
      let events =
        Net.poll net |> List.concat_map (Services.ingest ingesting)
      in
      List.iter (Services.observe observing) events;
      log := !log @ events;
      same_view ingesting && same_view observing)
    faults

let test_cached_view =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"cached view == fresh rebuild"
       (QCheck.make
          ~print:(fun faults ->
            String.concat "; " (List.map print_view_fault faults))
          QCheck.Gen.(list_size (int_range 1 25) gen_view_fault))
       cached_view_prop)

let suite =
  [
    Alcotest.test_case "handshake and discovery" `Quick test_handshake_produces_switch_up_and_links;
    Alcotest.test_case "link_down derived once" `Quick test_link_down_event_derived_once;
    Alcotest.test_case "link rediscovery" `Quick test_link_up_rediscovery;
    Alcotest.test_case "switch death cleans up" `Quick test_switch_down_removes_links_and_registration;
    Alcotest.test_case "device manager learns hosts" `Quick test_host_learning;
    Alcotest.test_case "no learning on core ports" `Quick test_no_learning_on_core_ports;
    Alcotest.test_case "context view" `Quick test_context_snapshot;
    test_cached_view;
  ]
