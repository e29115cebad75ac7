open Openflow
open Netsim
module Runtime = Legosdn.Runtime
module Sandbox = Legosdn.Sandbox
module Crashpad = Legosdn.Crashpad
module Recovery_policy = Legosdn.Recovery_policy
module Metrics = Legosdn.Metrics
module Ticket = Legosdn.Ticket
module Netlog = Legosdn.Netlog
module Resources = Legosdn.Resources
module Event = Controller.Event
module Command = Controller.Command
module App_sig = Controller.App_sig

let packet_in_event ?(sid = 1) ?(in_port = 100) src dst =
  Event.Packet_in
    ( sid,
      {
        Message.pi_buffer_id = None;
        pi_in_port = in_port;
        pi_reason = Message.No_match;
        pi_packet = T_util.tcp_packet src dst;
      } )

let fresh ?(topo = Topo_gen.linear ~hosts_per_switch:1 3) ?config apps =
  let clock = Clock.create () in
  let net = Net.create clock topo in
  let rt = Runtime.create ?config net apps in
  Runtime.step rt;
  (net, rt)

let with_policy policy =
  {
    Runtime.default_config with
    Runtime.crashpad = { Crashpad.default_config with Crashpad.policy };
  }

(* A test app that cannot survive switch-down but handles the equivalent
   link-downs fine, leaving observable marker rules. *)
module Transformable = struct
  type state = int

  let name = "transformable"
  let subscriptions = [ Event.K_switch_down; Event.K_link_down ]
  let init () = 0

  let handle _ctx st = function
    | Event.Switch_down _ -> failwith "cannot cope with switch loss"
    | Event.Link_down l ->
        ( st + 1,
          [
            Command.install ~priority:50 l.Event.dst_switch
              (Ofp_match.make ~dl_type:0x7777 ~tp_src:l.Event.src_port ())
              [];
          ] )
    | _ -> (st, [])
end

let test_failstop_recovered_and_sibling_unaffected () =
  let _, rt =
    fresh
      ~config:(with_policy (Recovery_policy.uniform Recovery_policy.Absolute))
      [
        Apps.Faulty.wrap
          ~bug:(Apps.Bug_model.crash_on Event.K_packet_in)
          (App_sig.app (module Apps.Learning_switch));
        (App_sig.app (module Apps.Firewall));
      ]
  in
  Runtime.dispatch_event rt (packet_in_event 1 2);
  let m = Runtime.metrics rt in
  T_util.checki "crash recorded" 1 Metrics.(get m crashes);
  let ls = Option.get (Runtime.sandbox rt "learning_switch") in
  T_util.checkb "app alive after recovery" true (Sandbox.alive ls);
  (* Firewall still sees traffic. *)
  Runtime.dispatch_event rt (packet_in_event ~sid:2 3 1);
  let fw = Option.get (Runtime.sandbox rt "firewall") in
  T_util.checkb "sibling kept processing" true (Sandbox.events_handled fw >= 2);
  (* Both packet-ins hit the every-packet_in bug: one ticket each. *)
  T_util.checki "one ticket per policy application" 2
    (List.length (Ticket.by_app (Runtime.ticket_store rt) "learning_switch"))

let test_partial_crash_rolled_back () =
  let bug =
    Apps.Bug_model.make
      (Apps.Bug_model.On_nth_of_kind (Event.K_packet_in, 2))
      (Apps.Bug_model.Crash_partial 0.5)
  in
  let net, rt = fresh [ Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Flooder)) ] in
  Runtime.dispatch_event rt (packet_in_event ~sid:1 1 2);
  T_util.checki "event 1 installed its rule" 1
    (Flow_table.size (Net.switch net 1).Sw.table);
  Runtime.dispatch_event rt (packet_in_event ~sid:2 2 1);
  (* The escaped install on s2 must have been rolled back. *)
  T_util.checki "partial install rolled back" 0
    (Flow_table.size (Net.switch net 2).Sw.table);
  let tickets = Runtime.tickets rt in
  T_util.checkb "rollback recorded in ticket" true
    (List.exists (fun t -> t.Ticket.rolled_back_ops > 0) tickets)

let test_ticket_counts_undos () =
  (* The crash lets the whole output of the second packet-in out: a
     flow-add and a packet-out. A packet on the wire has no inverse, so
     the abort runs one undo, and that is what the ticket reports. *)
  let bug =
    Apps.Bug_model.make
      (Apps.Bug_model.On_nth_of_kind (Event.K_packet_in, 2))
      (Apps.Bug_model.Crash_partial 1.0)
  in
  let net, rt =
    fresh
      ~config:(with_policy (Recovery_policy.uniform Recovery_policy.Absolute))
      [ Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Flooder)) ]
  in
  let undos = ref [] in
  Netlog.set_close_hook (Option.get (Runtime.netlog rt)) (fun e ->
      if not e.Netlog.je_committed then undos := e.Netlog.je_rolled_back :: !undos);
  Runtime.dispatch_event rt (packet_in_event ~sid:1 1 2);
  Runtime.dispatch_event rt (packet_in_event ~sid:2 2 1);
  T_util.checki "escaped add rolled back" 0
    (Flow_table.size (Net.switch net 2).Sw.table);
  Alcotest.(check (list int)) "one aborted transaction, one undo" [ 1 ] !undos;
  match Runtime.tickets rt with
  | [ t ] -> T_util.checki "ticket counts the undo" 1 t.Ticket.rolled_back_ops
  | ts -> Alcotest.failf "expected one ticket, got %d" (List.length ts)

let test_byzantine_loop_blocked () =
  let bug =
    Apps.Bug_model.make
      (Apps.Bug_model.On_kind Event.K_packet_in)
      Apps.Bug_model.Byzantine_loop
  in
  let net, rt =
    fresh ~topo:(Topo_gen.ring 3)
      ~config:(with_policy (Recovery_policy.uniform Recovery_policy.Absolute))
      [ Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Learning_switch)) ]
  in
  Runtime.dispatch_event rt (packet_in_event ~sid:1 1 2);
  T_util.checki "byzantine output blocked" 1 Metrics.(get (Runtime.metrics rt) byzantine);
  List.iter
    (fun sid ->
      T_util.checki "no loop rules committed" 0
        (Flow_table.size (Net.switch net sid).Sw.table))
    [ 1; 2; 3 ]

let test_byzantine_blackhole_blocked () =
  let bug =
    Apps.Bug_model.make
      (Apps.Bug_model.On_kind Event.K_packet_in)
      Apps.Bug_model.Byzantine_blackhole
  in
  let net, rt =
    fresh
      ~config:(with_policy (Recovery_policy.uniform Recovery_policy.Absolute))
      [ Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Learning_switch)) ]
  in
  Runtime.dispatch_event rt (packet_in_event 1 2);
  T_util.checki "blocked" 1 Metrics.(get (Runtime.metrics rt) byzantine);
  T_util.checki "no black-hole rule" 0 (Flow_table.size (Net.switch net 1).Sw.table)

let test_hang_recovered () =
  let bug =
    Apps.Bug_model.make (Apps.Bug_model.On_kind Event.K_packet_in)
      Apps.Bug_model.Hang
  in
  let _, rt =
    fresh
      ~config:(with_policy (Recovery_policy.uniform Recovery_policy.Absolute))
      [ Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Learning_switch)) ]
  in
  Runtime.dispatch_event rt (packet_in_event 1 2);
  let m = Runtime.metrics rt in
  T_util.checki "hang detected" 1 Metrics.(get m hangs);
  (* Hang detection is slower than crash detection: charged as downtime. *)
  T_util.checkb "downtime charged" true
    (Metrics.app_downtime m ~app:"learning_switch" ~until:10. > 0.)

let test_no_compromise_disables () =
  let bug = Apps.Bug_model.crash_on Event.K_packet_in in
  let _, rt =
    fresh
      ~config:(with_policy (Recovery_policy.uniform Recovery_policy.No_compromise))
      [ Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Learning_switch)) ]
  in
  Runtime.dispatch_event rt (packet_in_event 1 2);
  let ls = Option.get (Runtime.sandbox rt "learning_switch") in
  T_util.checkb "app taken out of service" false (Sandbox.alive ls);
  T_util.checki "disabled metric" 1 Metrics.(get (Runtime.metrics rt) disabled);
  (* Further events are not delivered to a disabled app. *)
  Runtime.dispatch_event rt (packet_in_event 2 1);
  T_util.checki "no more crashes" 1 (Sandbox.crash_count ls)

let test_absolute_ignores () =
  let bug = Apps.Bug_model.crash_on_nth Event.K_packet_in 1 in
  let _, rt =
    fresh
      ~config:(with_policy (Recovery_policy.uniform Recovery_policy.Absolute))
      [ Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Learning_switch)) ]
  in
  Runtime.dispatch_event rt (packet_in_event 1 2);
  let m = Runtime.metrics rt in
  T_util.checki "ignored" 1 Metrics.(get m ignored);
  T_util.checki "not transformed" 0 Metrics.(get m transformed);
  let ls = Option.get (Runtime.sandbox rt "learning_switch") in
  T_util.checkb "app continues" true (Sandbox.alive ls)

let test_equivalence_transforms_switch_down () =
  let net, rt = fresh (App_sig.app (module Transformable : App_sig.APP) :: []) in
  (* Synthetic switch-down for s2 (the controller's view still has its
     links): the app crashes on it, Crash-Pad replays it as link-downs. *)
  Runtime.dispatch_event rt (Event.Switch_down 2);
  let m = Runtime.metrics rt in
  T_util.checki "transformed once" 1 Metrics.(get m transformed);
  T_util.checki "one crash behind it" 1 Metrics.(get m crashes);
  (* The link-down handler left marker rules: proof the alternative ran
     and committed. s2 had two links (to s1 and s3). *)
  let markers =
    List.length (Flow_table.entries (Net.switch net 1).Sw.table)
    + List.length (Flow_table.entries (Net.switch net 3).Sw.table)
  in
  T_util.checki "marker rules from both link-downs" 2 markers;
  match Runtime.tickets rt with
  | [ t ] ->
      T_util.checkb "ticket records the transformation" true
        (match t.Ticket.resolution with Ticket.Transformed _ -> true | _ -> false)
  | _ -> Alcotest.fail "one ticket expected"

let test_equivalence_falls_back_to_ignore () =
  (* Crash on every subscribed kind: the alternative crashes too, so the
     policy falls back to Absolute. *)
  let module Hopeless = struct
    type state = unit

    let name = "hopeless"
    let subscriptions = [ Event.K_switch_down; Event.K_link_down ]
    let init () = ()
    let handle _ _ _ : state * Command.t list = failwith "always dies"
  end in
  let _, rt = fresh [ App_sig.app (module Hopeless : App_sig.APP) ] in
  Runtime.dispatch_event rt (Event.Switch_down 2);
  let m = Runtime.metrics rt in
  T_util.checki "fell back to ignoring" 1 Metrics.(get m ignored);
  T_util.checki "not recorded as transformed" 0 Metrics.(get m transformed);
  T_util.checkb "multiple crashes burned trying" true (Metrics.(get m crashes) >= 2)

let test_checkpoint_every_k_replays () =
  let config =
    {
      (with_policy (Recovery_policy.uniform Recovery_policy.Absolute)) with
      Runtime.checkpoint_every = 4;
    }
  in
  let bug = Apps.Bug_model.crash_on_nth Event.K_packet_in 4 in
  let _, rt = fresh ~config [ Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Learning_switch)) ] in
  Runtime.dispatch_event rt (packet_in_event 1 2);
  Runtime.dispatch_event rt (packet_in_event 2 1);
  Runtime.dispatch_event rt (packet_in_event 3 1);
  Runtime.dispatch_event rt (packet_in_event 1 3);
  let m = Runtime.metrics rt in
  T_util.checki "crashed on 4th" 1 Metrics.(get m crashes);
  T_util.checki "journal replayed (3 events since snapshot)" 3 Metrics.(get m replayed);
  let ls = Option.get (Runtime.sandbox rt "learning_switch") in
  T_util.checkb "alive" true (Sandbox.alive ls)

let test_resource_limit_contains_leak () =
  let bug =
    Apps.Bug_model.make (Apps.Bug_model.On_kind Event.K_packet_in)
      (Apps.Bug_model.Leak 100_000)
  in
  let config =
    {
      Runtime.default_config with
      Runtime.crashpad =
        {
          Crashpad.default_config with
          Crashpad.limits =
            { Resources.max_state_bytes = Some 50_000; max_commands_per_event = None };
        };
    }
  in
  let _, rt = fresh ~config [ Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Learning_switch)) ] in
  Runtime.dispatch_event rt (packet_in_event 1 2);
  let m = Runtime.metrics rt in
  T_util.checki "breach detected" 1 Metrics.(get m resource_breaches);
  let ls = Option.get (Runtime.sandbox rt "learning_switch") in
  T_util.checkb "app restarted, not dead" true (Sandbox.alive ls);
  T_util.checkb "state shrunk back under the limit" true
    (Sandbox.state_size ls < 50_000)

let test_command_limit () =
  let config =
    {
      Runtime.default_config with
      Runtime.crashpad =
        {
          Crashpad.default_config with
          Crashpad.limits =
            { Resources.max_state_bytes = None; max_commands_per_event = Some 0 };
        };
    }
  in
  let net, rt = fresh ~config [ (App_sig.app (module Apps.Flooder)) ] in
  Runtime.dispatch_event rt (packet_in_event 1 2);
  T_util.checki "breach" 1 Metrics.(get (Runtime.metrics rt) resource_breaches);
  T_util.checki "commands never committed" 0
    (Flow_table.size (Net.switch net 1).Sw.table)

let test_upgrade_preserves_app_state () =
  let net, rt = fresh [ (App_sig.app (module Apps.Learning_switch)) ] in
  (* Learn something. *)
  Clock.advance_by (Net.clock net) 0.1;
  Net.inject net 1 (T_util.tcp_packet 1 2);
  Runtime.step rt;
  let ls = Option.get (Runtime.sandbox rt "learning_switch") in
  let state_before = Sandbox.state_size ls in
  T_util.checkb "learned something" true (Sandbox.events_handled ls > 0);
  Runtime.upgrade_controller rt;
  let ls_after = Option.get (Runtime.sandbox rt "learning_switch") in
  T_util.checkb "same sandbox object" true (ls == ls_after);
  T_util.checki "state preserved across upgrade" state_before
    (Sandbox.state_size ls_after)

let test_stats_replies_routed_to_requester () =
  let _, rt = fresh [ (App_sig.app (module Apps.Monitor)); (App_sig.app (module Apps.Learning_switch)) ] in
  Runtime.tick rt;
  let monitor = Option.get (Runtime.sandbox rt "monitor") in
  (* Tick + 3 stats replies = at least 4 events into the monitor. *)
  T_util.checkb "monitor received its replies" true
    (Sandbox.events_handled monitor >= 4);
  let ls = Option.get (Runtime.sandbox rt "learning_switch") in
  T_util.checki "learning switch saw none of it" 0 (Sandbox.events_handled ls)

let test_runtime_never_dies () =
  (* Throw every failure mode at the runtime at once. *)
  let apps : App_sig.app list =
    [
      Apps.Faulty.wrap
        ~bug:(Apps.Bug_model.crash_on Event.K_packet_in)
        (App_sig.app (module Apps.Learning_switch));
      Apps.Faulty.wrap
        ~bug:(Apps.Bug_model.make (Apps.Bug_model.On_kind Event.K_packet_in)
                Apps.Bug_model.Hang)
        (App_sig.app (module Apps.Hub));
      Apps.Faulty.wrap
        ~bug:(Apps.Bug_model.make (Apps.Bug_model.On_kind Event.K_packet_in)
                Apps.Bug_model.Byzantine_blackhole)
        (App_sig.app (module Apps.Flooder));
      (App_sig.app (module Apps.Firewall));
    ]
  in
  let net, rt = fresh apps in
  for i = 1 to 10 do
    Clock.advance_by (Net.clock net) 0.05;
    Runtime.dispatch_event rt (packet_in_event (1 + (i mod 3)) (1 + ((i + 1) mod 3)))
  done;
  let m = Runtime.metrics rt in
  T_util.checkb "crashes happened" true (Metrics.(get m crashes) > 0);
  T_util.checkb "hangs happened" true (Metrics.(get m hangs) > 0);
  T_util.checkb "byzantine happened" true (Metrics.(get m byzantine) > 0);
  let fw = Option.get (Runtime.sandbox rt "firewall") in
  (* 3 switch_up handshakes + 10 packet_ins. *)
  T_util.checki "the healthy app processed everything" 13
    (Sandbox.events_handled fw)

(* Robustness: any event stream — valid, stale or nonsensical — must flow
   through the runtime without an exception escaping, whatever the app
   does with it. *)
let random_event_gen =
  QCheck2.Gen.(
    let desc up =
      { Message.port_no = 1; hw_addr = 0; name = "eth1"; up; no_flood = false }
    in
    let* sid = int_range 0 9 in
    oneof
      [
        map (fun dst -> packet_in_event ~sid 1 dst) (int_range 0 9);
        return (Event.Switch_down sid);
        map (fun up -> Event.Port_status (sid, Message.Port_modify, desc up)) bool;
        return
          (Event.Link_down
             { Event.src_switch = sid; src_port = 1; dst_switch = sid + 1; dst_port = 1 });
        map (fun t -> Event.Tick t) (float_bound_exclusive 100.);
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
               } ));
      ])

let prop_runtime_total =
  QCheck2.Test.make ~name:"runtime absorbs arbitrary event streams" ~count:60
    QCheck2.Gen.(pair (int_bound 4) (list_size (int_range 1 25) random_event_gen))
    (fun (bug_choice, events) ->
      let bug =
        let open Apps.Bug_model in
        match bug_choice with
        | 0 -> make (On_kind Event.K_packet_in) Crash
        | 1 -> make (On_kind Event.K_switch_down) Hang
        | 2 -> make (On_kind Event.K_packet_in) Byzantine_blackhole
        | 3 -> make (After_events 5) Crash
        | _ -> make Never Crash
      in
      let _, rt =
        fresh
          [
            Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Learning_switch));
            (App_sig.app (module Apps.Firewall));
            (App_sig.app (module Apps.Monitor));
          ]
      in
      List.iter (Runtime.dispatch_event rt) events;
      (* Every sandbox still answers; the runtime accounted for every
         delivered event. *)
      List.for_all (fun box -> Sandbox.crash_count box >= 0) (Runtime.sandboxes rt)
      && Runtime.events_processed rt >= List.length events)

let suite =
  [
    Alcotest.test_case "fail-stop recovered, sibling unaffected" `Quick
      test_failstop_recovered_and_sibling_unaffected;
    Alcotest.test_case "partial crash rolled back" `Quick test_partial_crash_rolled_back;
    Alcotest.test_case "ticket counts undos" `Quick test_ticket_counts_undos;
    Alcotest.test_case "byzantine loop blocked" `Quick test_byzantine_loop_blocked;
    Alcotest.test_case "byzantine black hole blocked" `Quick test_byzantine_blackhole_blocked;
    Alcotest.test_case "hang recovered" `Quick test_hang_recovered;
    Alcotest.test_case "no-compromise disables" `Quick test_no_compromise_disables;
    Alcotest.test_case "absolute ignores" `Quick test_absolute_ignores;
    Alcotest.test_case "equivalence transforms switch-down" `Quick
      test_equivalence_transforms_switch_down;
    Alcotest.test_case "equivalence falls back" `Quick test_equivalence_falls_back_to_ignore;
    Alcotest.test_case "checkpoint every k + replay" `Quick test_checkpoint_every_k_replays;
    Alcotest.test_case "resource limit contains leak" `Quick test_resource_limit_contains_leak;
    Alcotest.test_case "command limit" `Quick test_command_limit;
    Alcotest.test_case "upgrade preserves app state" `Quick test_upgrade_preserves_app_state;
    Alcotest.test_case "stats replies routed" `Quick test_stats_replies_routed_to_requester;
    Alcotest.test_case "runtime never dies" `Quick test_runtime_never_dies;
    QCheck_alcotest.to_alcotest prop_runtime_total;
  ]
