open Netsim
module Monolithic = Controller.Monolithic
module Event = Controller.Event
module App_sig = Controller.App_sig

let drive_traffic net mono pairs =
  List.iter
    (fun (src, dst) ->
      Clock.advance_by (Net.clock net) 0.1;
      Net.inject net src (T_util.tcp_packet src dst);
      Monolithic.step mono)
    pairs

let fresh_mono ?(topo = Topo_gen.linear ~hosts_per_switch:1 3) apps =
  let clock = Clock.create () in
  let net = Net.create clock topo in
  let mono = Monolithic.create net apps in
  Monolithic.step mono;
  (net, mono)

let buggy bug : App_sig.app =
  Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Learning_switch))

let test_healthy_dispatch () =
  let net, mono = fresh_mono [ (App_sig.app (module Apps.Learning_switch)) ] in
  drive_traffic net mono [ (1, 2); (2, 1); (1, 2) ];
  T_util.checkb "controller running" true (Monolithic.status mono = Monolithic.Running);
  T_util.checkb "events flowed" true (Monolithic.events_processed mono > 0);
  (* After learning both sides, h1->h2 is pinned in hardware. *)
  T_util.checkb "path installed" true (T_util.reachable net 1 2)

let test_crash_takes_down_everything () =
  let net, mono =
    fresh_mono
      [
        buggy (Apps.Bug_model.crash_on_nth Event.K_packet_in 2);
        (App_sig.app (module Apps.Firewall));
      ]
  in
  drive_traffic net mono [ (1, 2); (2, 1); (1, 3) ];
  (match Monolithic.status mono with
  | Monolithic.Crashed info ->
      Alcotest.(check string) "culprit identified" "learning_switch"
        info.Monolithic.culprit
  | Monolithic.Running -> Alcotest.fail "controller should be dead");
  (* The whole stack is frozen: new events do nothing. *)
  let before = Monolithic.events_processed mono in
  drive_traffic net mono [ (2, 3) ];
  T_util.checki "no events processed while dead" before
    (Monolithic.events_processed mono)

let test_partial_commands_leak_to_network () =
  (* A crash after partial emission leaves the prefix installed: the
     inconsistency NetLog exists to prevent. *)
  let net, mono =
    fresh_mono
      [
        Apps.Faulty.wrap
          ~bug:(Apps.Bug_model.make
                  (Apps.Bug_model.On_nth_of_kind (Event.K_packet_in, 2))
                  (Apps.Bug_model.Crash_partial 0.5))
          (App_sig.app (module Apps.Flooder));
      ]
  in
  drive_traffic net mono [ (1, 2); (2, 1) ];
  T_util.checkb "controller dead" true (Monolithic.status mono <> Monolithic.Running);
  (* Flooder's event-2 handler wanted install+packet_out; half got through. *)
  let installed =
    List.length (Flow_table.entries (Net.switch net 1).Sw.table)
    + List.length (Flow_table.entries (Net.switch net 2).Sw.table)
    + List.length (Flow_table.entries (Net.switch net 3).Sw.table)
  in
  T_util.checkb "a partial rule escaped" true (installed >= 1)

let test_hang_wedges_controller () =
  let net, mono =
    fresh_mono
      [
        Apps.Faulty.wrap
          ~bug:(Apps.Bug_model.make (Apps.Bug_model.On_kind Event.K_packet_in)
                  Apps.Bug_model.Hang)
          (App_sig.app (module Apps.Learning_switch));
      ]
  in
  drive_traffic net mono [ (1, 2) ];
  match Monolithic.status mono with
  | Monolithic.Crashed info ->
      Alcotest.(check string) "hang diagnosed" "hang" info.Monolithic.detail
  | Monolithic.Running -> Alcotest.fail "hang should wedge the controller"

let test_restart_loses_app_state () =
  (* A healthy learning switch rides along with an app that dies on its 6th
     packet-in; the restart wipes the learning switch's MAC table too. *)
  let net, mono =
    fresh_mono
      [
        (App_sig.app (module Apps.Learning_switch));
        buggy (Apps.Bug_model.crash_on_nth Event.K_packet_in 6);
      ]
  in
  drive_traffic net mono [ (1, 2); (2, 1) ];
  let ls_before = App_sig.snapshot (List.hd (Monolithic.apps mono)) in
  let fresh = App_sig.snapshot (App_sig.reboot (List.hd (Monolithic.apps mono))) in
  T_util.checkb "learning switch learned something" true (ls_before <> fresh);
  drive_traffic net mono [ (1, 3); (3, 1); (2, 3) ];
  T_util.checkb "dead" true (Monolithic.status mono <> Monolithic.Running);
  Monolithic.restart mono;
  T_util.checkb "running again" true (Monolithic.status mono = Monolithic.Running);
  T_util.checkb "app state wiped by restart" true
    (App_sig.snapshot (List.hd (Monolithic.apps mono)) = fresh);
  drive_traffic net mono [ (3, 1) ];
  T_util.checkb "controller serves events after restart" true
    (Monolithic.events_processed mono > 0)

let test_dispatch_respects_subscriptions () =
  let _, mono = fresh_mono [ (App_sig.app (module Apps.Monitor)) ] in
  (* Monitor ignores packet_in; dispatching one must not reach it. *)
  Monolithic.dispatch_event mono
    (Event.Packet_in
       ( 1,
         {
           Openflow.Message.pi_buffer_id = None;
           pi_in_port = 1;
           pi_reason = Openflow.Message.No_match;
           pi_packet = T_util.tcp_packet 1 2;
         } ));
  Monolithic.tick mono;
  T_util.checkb "commands only from tick" true (Monolithic.commands_executed mono > 0)

let test_stats_replies_routed_back () =
  let net, mono = fresh_mono [ (App_sig.app (module Apps.Monitor)) ] in
  Monolithic.tick mono;
  ignore net;
  let monitor = List.hd (Monolithic.apps mono) in
  (* The monitor polled every switch and the synchronous replies were
     dispatched back as events; its totals map must now know 3 switches. *)
  ignore monitor;
  T_util.checkb "poll round-trip happened" true (Monolithic.commands_executed mono >= 3)

let suite =
  [
    Alcotest.test_case "healthy dispatch installs paths" `Quick test_healthy_dispatch;
    Alcotest.test_case "fate sharing on crash" `Quick test_crash_takes_down_everything;
    Alcotest.test_case "partial commands leak" `Quick test_partial_commands_leak_to_network;
    Alcotest.test_case "hang wedges controller" `Quick test_hang_wedges_controller;
    Alcotest.test_case "restart loses app state" `Quick test_restart_loses_app_state;
    Alcotest.test_case "subscription filtering" `Quick test_dispatch_respects_subscriptions;
    Alcotest.test_case "stats replies routed" `Quick test_stats_replies_routed_back;
  ]
