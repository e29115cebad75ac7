module App_sig = Controller.App_sig
(* Reliable delivery and switch resynchronization: retransmission over a
   lossy channel, the unreachable circuit breaker, duplicate suppression,
   and shadow-table replay after a reboot. *)

open Openflow
open Netsim
module Runtime = Legosdn.Runtime
module Reliable = Legosdn.Reliable
module Metrics = Legosdn.Metrics

let flow_msg ~xid =
  Message.message ~xid
    (Message.Flow_mod (Message.flow_add Ofp_match.any [ Action.Output 2 ]))

(* Direct Reliable-over-Net use, no runtime: a dropped flow-mod is
   retransmitted once the channel works again, ending with the rule
   installed exactly once. *)
let test_retransmission_recovers_lost_message () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 2) in
  ignore (Net.poll net);
  let rel = Reliable.create net in
  Channel.set_loss (Net.channel net 1) 1.0;
  ignore (Reliable.send rel 1 (flow_msg ~xid:1));
  T_util.checki "rule lost in transit" 0
    (Flow_table.size (Net.switch net 1).Sw.table);
  T_util.checki "one message pending" 1 (Reliable.pending_count rel);
  Channel.set_loss (Net.channel net 1) 0.;
  Clock.advance_by clock 0.1;
  Reliable.tick rel;
  T_util.checki "rule installed by retransmission" 1
    (Flow_table.size (Net.switch net 1).Sw.table);
  T_util.checki "nothing pending" 0 (Reliable.pending_count rel);
  T_util.checki "one retransmit" 1 (Reliable.retransmits rel);
  T_util.checki "converged" 0 (Reliable.divergence rel)

let test_retry_budget_degrades_then_probe_heals () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 2) in
  ignore (Net.poll net);
  let config = { Reliable.default_config with Reliable.max_retries = 3 } in
  let rel = Reliable.create ~config net in
  Net.apply_fault net (Net.Channel_partition 1);
  ignore (Reliable.send rel 1 (flow_msg ~xid:1));
  for _ = 1 to 10 do
    Clock.advance_by clock 1.0;
    Reliable.tick rel
  done;
  T_util.checkb "retry budget exhausted" true (Reliable.is_degraded rel 1);
  T_util.checki "queue abandoned" 0 (Reliable.pending_count rel);
  T_util.checki "one degradation" 1 (Reliable.degraded_count rel);
  (* Sends to a degraded switch are swallowed, but intent is recorded. *)
  ignore (Reliable.send rel 1 (flow_msg ~xid:2));
  T_util.checki "swallowed, not queued" 0 (Reliable.pending_count rel);
  (* Heal the partition: the next half-open probe resynchronizes. *)
  Net.apply_fault net (Net.Channel_heal 1);
  for _ = 1 to 5 do
    Clock.advance_by clock 1.0;
    Reliable.tick rel
  done;
  T_util.checkb "probe healed the breaker" false (Reliable.is_degraded rel 1);
  T_util.checki "intended rule replayed" 1
    (Flow_table.size (Net.switch net 1).Sw.table);
  T_util.checki "one resync" 1 (Reliable.resyncs rel);
  T_util.checki "converged after heal" 0 (Reliable.divergence rel)

(* A duplicating channel delivers the same flow-mod twice; xid dedup makes
   the second application a no-op. *)
let test_duplicate_suppression () =
  let clock = Clock.create () in
  let net =
    Net.create ~channel:{ Channel.perfect with Channel.duplicate = 1.0 } clock
      (Topo_gen.linear ~hosts_per_switch:1 2)
  in
  ignore (Net.poll net);
  ignore (Net.send net 1 (flow_msg ~xid:3));
  T_util.checki "rule installed once" 1
    (Flow_table.size (Net.switch net 1).Sw.table);
  T_util.checkb "duplicate suppressed" true (Net.dups_suppressed net >= 1)

(* Full stack: a mid-path switch reboots after traffic has pinned flows.
   Without fresh traffic, only shadow-table replay can repair the path. *)
let reboot_scenario ~reliable_on =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
  let config =
    {
      Runtime.default_config with
      Runtime.reliable =
        { Reliable.default_config with Reliable.enabled = reliable_on };
    }
  in
  (* Learning switch: rules survive topology events in the shadow (unlike
     Router, which proactively tears routes down on Switch_down), so a
     reboot cleanly isolates resynchronization. *)
  let rt = Runtime.create ~config net [ (App_sig.app (module Apps.Learning_switch)) ] in
  Runtime.step rt;
  List.iter
    (fun (src, dst) ->
      Clock.advance_by clock 0.05;
      Net.inject net src (Packet.tcp ~src_host:src ~dst_host:dst ());
      Runtime.step rt)
    [ (1, 3); (3, 1); (1, 3); (3, 1) ];
  T_util.checkb "path warmed" true (Net.reachable net 1 3);
  Net.apply_fault net (Net.Switch_down 2);
  Runtime.step rt;
  Net.apply_fault net (Net.Switch_up 2);
  (* The rebooted switch is empty: the old rules are gone and no new
     packet has arrived to re-trigger the applications. *)
  T_util.checkb "reboot blackholes the path" false (Net.reachable net 1 3);
  Runtime.step rt;
  (clock, net, rt)

let test_resync_repairs_rebooted_switch () =
  let _, net, rt = reboot_scenario ~reliable_on:true in
  T_util.checkb "resync repaired forwarding without new traffic" true
    (Net.reachable net 1 3);
  let m = Runtime.metrics rt in
  T_util.checkb "resync counted" true (Metrics.(get m resyncs) >= 1);
  T_util.checkb "rules replayed" true (Metrics.(get m resynced_rules) >= 1)

let test_no_resync_without_reliable_layer () =
  let _, net, rt = reboot_scenario ~reliable_on:false in
  T_util.checkb "disabled layer leaves the path black-holed" false
    (Net.reachable net 1 3);
  T_util.checki "no resyncs" 0 Metrics.(get (Runtime.metrics rt) resyncs)

(* Transactions against a degraded switch abort cleanly: the crashpad
   screen turns them into Unreachable failures before anything is sent.
   Degrading the switch refuses nothing by itself; the first transaction
   that targets it is refused and ticketed. *)
let test_unreachable_screen_aborts_transactions () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
  let config =
    {
      Runtime.default_config with
      Runtime.reliable =
        { Reliable.default_config with Reliable.max_retries = 2 };
    }
  in
  let rt =
    Runtime.create ~config net
      [ (App_sig.app (module Apps.Spanning_tree)); (App_sig.app (module Apps.Router)) ]
  in
  Runtime.step rt;
  Net.apply_fault net (Net.Channel_partition 2);
  (* Bidirectional traffic so host locations get learned and the router
     keeps trying to program a path through the partitioned switch 2. *)
  for i = 1 to 12 do
    Clock.advance_by clock 0.5;
    let src, dst = if i mod 2 = 0 then (1, 3) else (3, 1) in
    Net.inject net src (Packet.tcp ~src_host:src ~dst_host:dst ());
    Runtime.step rt
  done;
  let rel = Option.get (Runtime.reliable rt) in
  let m = Runtime.metrics rt in
  T_util.checkb "switch 2 degraded" true (Reliable.is_degraded rel 2);
  T_util.checki "degrading refuses no transaction" 0
    Metrics.(get m unreachable);
  let seen = List.map (fun t -> t.Legosdn.Ticket.id) (Runtime.tickets rt) in
  Runtime.dispatch_event rt
    (Controller.Event.Packet_in
       ( 2,
         {
           Message.pi_buffer_id = None;
           pi_in_port = 1;
           pi_reason = Message.No_match;
           pi_packet = Packet.tcp ~src_host:1 ~dst_host:3 ();
         } ));
  T_util.checkb "unreachable aborts counted" true
    (Metrics.(get m unreachable) >= 1);
  match
    List.filter
      (fun t -> not (List.mem t.Legosdn.Ticket.id seen))
      (Runtime.tickets rt)
  with
  | [ t ] ->
      let prefix = "unreachable: switch 2 " in
      T_util.checkb "diagnosis names switch 2" true
        (String.starts_with ~prefix t.Legosdn.Ticket.diagnosis)
  | ts -> Alcotest.failf "expected one new ticket, got %d" (List.length ts)

let suite =
  [
    Alcotest.test_case "retransmission recovers a lost message" `Quick
      test_retransmission_recovers_lost_message;
    Alcotest.test_case "retry budget degrades, probe heals" `Quick
      test_retry_budget_degrades_then_probe_heals;
    Alcotest.test_case "duplicate suppression" `Quick test_duplicate_suppression;
    Alcotest.test_case "resync repairs a rebooted switch" `Quick
      test_resync_repairs_rebooted_switch;
    Alcotest.test_case "no resync when disabled" `Quick
      test_no_resync_without_reliable_layer;
    Alcotest.test_case "unreachable screen aborts transactions" `Quick
      test_unreachable_screen_aborts_transactions;
  ]
