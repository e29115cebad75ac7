(* Direct unit tests for the Reliable layer: the exponential-backoff
   schedule, the two-sided acknowledgement rule (barrier reply AND
   per-xid receive record), and the degraded → half-open → healed
   circuit breaker. t_channel/t_resync cover it end-to-end; these pin the
   mechanism itself. *)

open Openflow
open Netsim
module Reliable = Legosdn.Reliable

let flow_msg ~xid =
  Message.message ~xid
    (Message.Flow_mod (Message.flow_add Ofp_match.any [ Action.Output 2 ]))

let fresh ?config () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 2) in
  ignore (Net.poll net);
  (clock, net, Reliable.create ?config net)

(* ---- backoff schedule ---- *)

let test_backoff_schedule_values () =
  let cfg = Reliable.default_config in
  List.iteri
    (fun n expected ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "delay after attempt %d" n)
        expected
        (Reliable.backoff_delay cfg n))
    [ 0.05; 0.1; 0.2; 0.4; 0.8 ];
  let custom = { cfg with Reliable.base_timeout = 0.3 } in
  Alcotest.(check (float 1e-12)) "scales with base" 1.2
    (Reliable.backoff_delay custom 2)

let test_backoff_schedule_drives_retransmission () =
  let config =
    { Reliable.default_config with Reliable.base_timeout = 0.1 }
  in
  let clock, net, rel = fresh ~config () in
  Channel.set_loss (Net.channel net 1) 1.0;
  ignore (Reliable.send rel 1 (flow_msg ~xid:7));
  T_util.checki "queued, not retransmitted yet" 0 (Reliable.retransmits rel);
  (* The n-th retransmission waits base * 2^n after the previous
     transmission. Probe each deadline from both sides, using relative
     advances with a margin well above float noise. *)
  for n = 0 to 3 do
    let delay = Reliable.backoff_delay config n in
    Clock.advance_by clock (delay -. 0.004);
    Reliable.tick rel;
    T_util.checki
      (Printf.sprintf "still %d just before deadline %d" n n)
      n (Reliable.retransmits rel);
    Clock.advance_by clock 0.008;
    Reliable.tick rel;
    T_util.checki
      (Printf.sprintf "retransmission %d fired at its deadline" (n + 1))
      (n + 1) (Reliable.retransmits rel)
  done

(* ---- acknowledgement needs barrier reply AND receive record ---- *)

let test_barrier_reply_alone_does_not_ack () =
  let _clock, net, rel = fresh () in
  Channel.set_loss (Net.channel net 1) 1.0;
  ignore (Reliable.send rel 1 (flow_msg ~xid:42));
  T_util.checki "pending after lossy send" 1 (Reliable.pending_count rel);
  (* Forge the barrier reply the switch would have sent if only the
     barrier had made it through: the flow-mod itself was lost, so the
     switch has no record of xid 42 and the layer must not ack. *)
  let forged =
    Net.From_switch
      ( 1,
        Message.message ~xid:Reliable.barrier_xid_base Message.Barrier_reply )
  in
  Reliable.observe rel forged;
  T_util.checki "barrier reply alone does not ack" 1
    (Reliable.pending_count rel);
  T_util.checki "no ack counted" 0 (Reliable.acks rel);
  (* Now let the flow-mod actually arrive (same xid — the switch's dedup
     window makes redelivery harmless), and replay the same barrier
     reply: both conditions hold, so it acks. *)
  Channel.set_loss (Net.channel net 1) 0.;
  ignore (Net.send net 1 (flow_msg ~xid:42));
  Reliable.observe rel forged;
  T_util.checki "acked once the switch has seen the xid" 0
    (Reliable.pending_count rel);
  T_util.checki "one ack counted" 1 (Reliable.acks rel)

let test_synchronous_ack_needs_delivery_record () =
  (* With a perfect channel the send itself is acked synchronously:
     barrier reply comes back and the switch recorded the xid. *)
  let _clock, net, rel = fresh () in
  ignore (Reliable.send rel 1 (flow_msg ~xid:5));
  T_util.checki "nothing pending on a perfect channel" 0
    (Reliable.pending_count rel);
  T_util.checki "one ack" 1 (Reliable.acks rel);
  T_util.checkb "switch has the xid" true
    (Sw.has_seen_xid (Net.switch net 1) 5)

(* ---- circuit breaker: degraded -> half-open -> healed ---- *)

let test_circuit_breaker_transitions () =
  let config =
    { Reliable.default_config with Reliable.max_retries = 2 }
  in
  let clock, net, rel = fresh ~config () in
  Net.apply_fault net (Net.Channel_partition 1);
  ignore (Reliable.send rel 1 (flow_msg ~xid:9));
  T_util.checkb "healthy while retrying" false (Reliable.is_degraded rel 1);
  (* Exhaust the retry budget. *)
  for _ = 1 to 6 do
    Clock.advance_by clock 0.2;
    Reliable.tick rel
  done;
  T_util.checkb "breaker open after retry budget" true
    (Reliable.is_degraded rel 1);
  T_util.checki "queue abandoned" 0 (Reliable.pending_count rel);
  let degraded_at_probes = Reliable.retransmits rel in
  (* Half-open: probes fire while the partition persists, the breaker
     stays open and nothing is retransmitted. *)
  for _ = 1 to 4 do
    Clock.advance_by clock 0.5;
    Reliable.tick rel
  done;
  T_util.checkb "probe against dead channel keeps breaker open" true
    (Reliable.is_degraded rel 1);
  T_util.checki "probes are barriers, not retransmissions"
    degraded_at_probes (Reliable.retransmits rel);
  T_util.checki "no resync while degraded" 0 (Reliable.resyncs rel);
  (* Heal: the next half-open probe succeeds, triggers resync, and the
     switch converges to the shadow intent. *)
  Net.apply_fault net (Net.Channel_heal 1);
  for _ = 1 to 3 do
    Clock.advance_by clock 0.5;
    Reliable.tick rel
  done;
  T_util.checkb "healed after successful probe" false
    (Reliable.is_degraded rel 1);
  T_util.checki "one resync" 1 (Reliable.resyncs rel);
  T_util.checki "intent replayed" 1
    (Flow_table.size (Net.switch net 1).Sw.table);
  T_util.checki "converged" 0 (Reliable.divergence rel)

let test_probe_waits_full_interval () =
  let clock, net, rel = fresh () in
  Net.apply_fault net (Net.Channel_partition 1);
  ignore (Reliable.send rel 1 (flow_msg ~xid:3));
  (* Drive just past the full backoff ladder so the breaker opens. *)
  let rec open_breaker budget =
    if budget > 0 && not (Reliable.is_degraded rel 1) then begin
      Clock.advance_by clock 0.5;
      Reliable.tick rel;
      open_breaker (budget - 1)
    end
  in
  open_breaker 100;
  T_util.checkb "breaker open" true (Reliable.is_degraded rel 1);
  Net.apply_fault net (Net.Channel_heal 1);
  let opened_at = Clock.now clock in
  (* The half-open probe interval is 8 * base_timeout = 0.4s: healing the
     channel is not noticed before the next probe is due. *)
  Clock.advance_to clock (opened_at +. 0.2);
  Reliable.tick rel;
  T_util.checkb "not yet probed" true (Reliable.is_degraded rel 1);
  Clock.advance_to clock (opened_at +. 0.45);
  Reliable.tick rel;
  T_util.checkb "probed and healed" false (Reliable.is_degraded rel 1)

(* ---- shadow capture ---- *)

let entry_keys entries =
  List.map
    (fun (e : Flow_entry.t) -> (e.pattern, e.priority, e.actions))
    entries

let shadow_keys shadows =
  List.map (fun (sid, entries) -> (sid, entry_keys entries)) shadows

let test_capture_is_a_snapshot () =
  let _, _, rel = fresh () in
  let install ~xid sid tp =
    ignore
      (Reliable.send rel sid
         (Message.message ~xid
            (Message.Flow_mod
               (Message.flow_add (Ofp_match.make ~tp_src:tp ())
                  [ Action.Output 2 ]))))
  in
  install ~xid:1 2 10;
  install ~xid:2 1 11;
  install ~xid:3 1 12;
  let captured = Reliable.capture_shadows rel in
  let as_entries =
    List.map (fun (sid, v) -> (sid, Flow_table.Version.entries v)) captured
  in
  let before = Reliable.export_shadows rel in
  T_util.checkb "export is the capture's entries" true
    (shadow_keys as_entries = shadow_keys before);
  T_util.checkb "sorted by switch" true (List.map fst captured = [ 1; 2 ]);
  install ~xid:4 2 13;
  T_util.checkb "a later install changes the export" false
    (shadow_keys (Reliable.export_shadows rel) = shadow_keys before);
  T_util.checkb "and leaves the capture as it was" true
    (shadow_keys
       (List.map (fun (sid, v) -> (sid, Flow_table.Version.entries v)) captured)
    = shadow_keys before);
  Reliable.import_shadows rel as_entries;
  T_util.checkb "importing the capture restores it" true
    (shadow_keys (Reliable.export_shadows rel) = shadow_keys before)

let suite =
  [
    Alcotest.test_case "backoff schedule values" `Quick
      test_backoff_schedule_values;
    Alcotest.test_case "backoff drives retransmission timing" `Quick
      test_backoff_schedule_drives_retransmission;
    Alcotest.test_case "barrier reply alone does not ack" `Quick
      test_barrier_reply_alone_does_not_ack;
    Alcotest.test_case "synchronous ack has delivery record" `Quick
      test_synchronous_ack_needs_delivery_record;
    Alcotest.test_case "circuit breaker degraded/half-open/healed" `Quick
      test_circuit_breaker_transitions;
    Alcotest.test_case "half-open probe waits its interval" `Quick
      test_probe_waits_full_interval;
    Alcotest.test_case "a shadow capture is a snapshot" `Quick
      test_capture_is_a_snapshot;
  ]
