open Openflow
open Netsim
module Netlog = Legosdn.Netlog
module Counter_cache = Legosdn.Counter_cache
module Command = Controller.Command

let setup () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
  ignore (Net.poll net);
  let nl = Netlog.create net in
  (clock, net, nl)

(* Structural view of a flow table for equality checks, ignoring install
   times and counters. *)
let table_shape net sid =
  Flow_table.entries (Net.switch net sid).Sw.table
  |> List.map (fun (e : Flow_entry.t) ->
         (e.pattern, e.priority, e.actions, e.cookie, e.idle_timeout,
          e.hard_timeout, e.notify_when_removed))
  |> List.sort compare

let network_shape net =
  List.map (fun sid -> table_shape net sid) [ 1; 2; 3 ]

let flow_cmd sid fm = Command.Flow (sid, fm)

let test_abort_undoes_add () =
  let _, net, nl = setup () in
  let before = network_shape net in
  let txn = Netlog.begin_txn nl ~app:"t" in
  ignore
    (Netlog.apply nl txn
       (flow_cmd 1 (Message.flow_add (Ofp_match.make ~tp_dst:80 ()) [ Action.Output 1 ])));
  T_util.checki "rule installed eagerly" 1 (Flow_table.size (Net.switch net 1).Sw.table);
  Netlog.abort nl txn;
  T_util.checkb "network restored" true (network_shape net = before)

let test_abort_undoes_delete () =
  let _, net, nl = setup () in
  ignore
    (Net.send net 1
       (Message.message
          (Message.Flow_mod
             (Message.flow_add ~idle_timeout:60 (Ofp_match.make ~tp_dst:80 ())
                [ Action.Output 1 ]))));
  let before = network_shape net in
  let txn = Netlog.begin_txn nl ~app:"t" in
  ignore
    (Netlog.apply nl txn (flow_cmd 1 (Message.flow_delete (Ofp_match.make ~tp_dst:80 ()))));
  T_util.checki "rule gone" 0 (Flow_table.size (Net.switch net 1).Sw.table);
  Netlog.abort nl txn;
  T_util.checkb "rule restored with its parameters" true (network_shape net = before)

let test_abort_undoes_modify () =
  let _, net, nl = setup () in
  ignore
    (Net.send net 1
       (Message.message
          (Message.Flow_mod
             (Message.flow_add (Ofp_match.make ~tp_dst:80 ()) [ Action.Output 1 ]))));
  let before = network_shape net in
  let txn = Netlog.begin_txn nl ~app:"t" in
  let modify =
    {
      (Message.flow_add (Ofp_match.make ~tp_dst:80 ()) [ Action.Output 3 ]) with
      Message.command = Message.Modify;
    }
  in
  ignore (Netlog.apply nl txn (flow_cmd 1 modify));
  (match Flow_table.entries (Net.switch net 1).Sw.table with
  | [ e ] ->
      Alcotest.(check (list int)) "modified" [ 3 ] (Action.outputs e.Flow_entry.actions)
  | _ -> Alcotest.fail "one entry expected");
  Netlog.abort nl txn;
  T_util.checkb "actions restored" true (network_shape net = before)

let test_abort_undoes_add_that_replaced () =
  let _, net, nl = setup () in
  ignore
    (Net.send net 1
       (Message.message
          (Message.Flow_mod
             (Message.flow_add ~priority:7 ~cookie:11L
                (Ofp_match.make ~tp_dst:80 ())
                [ Action.Output 1 ]))));
  let before = network_shape net in
  let txn = Netlog.begin_txn nl ~app:"t" in
  ignore
    (Netlog.apply nl txn
       (flow_cmd 1
          (Message.flow_add ~priority:7 (Ofp_match.make ~tp_dst:80 ()) [ Action.Output 9 ])));
  Netlog.abort nl txn;
  T_util.checkb "replaced rule resurrected" true (network_shape net = before)

let test_multi_switch_transaction_rollback () =
  let _, net, nl = setup () in
  let before = network_shape net in
  let txn = Netlog.begin_txn nl ~app:"router" in
  List.iter
    (fun sid ->
      ignore
        (Netlog.apply nl txn
           (flow_cmd sid
              (Message.flow_add
                 (Ofp_match.make ~dl_dst:(Types.mac_of_host 2) ())
                 [ Action.Output 1 ]))))
    [ 1; 2; 3 ];
  T_util.checki "three rules live" 3
    (List.length (List.concat_map (fun s -> table_shape net s) [ 1; 2; 3 ]));
  Netlog.abort nl txn;
  T_util.checkb "all three rolled back" true (network_shape net = before);
  T_util.checki "rollback op count" 3 (Netlog.ops_rolled_back nl)

let test_commit_keeps_changes () =
  let _, net, nl = setup () in
  let closed = ref [] in
  Netlog.set_close_hook nl (fun e -> closed := e :: !closed);
  let add = flow_cmd 2 (Message.flow_add Ofp_match.any [ Action.Output 1 ]) in
  let txn = Netlog.begin_txn nl ~app:"t" in
  ignore (Netlog.apply nl txn add);
  ignore (Netlog.apply nl txn (Command.Log "b"));
  Netlog.commit nl txn;
  T_util.checki "rule survives commit" 1 (Flow_table.size (Net.switch net 2).Sw.table);
  T_util.checki "committed count" 1 (Netlog.committed nl);
  Alcotest.(check (list (list T_util.command_t)))
    "the close hook gets the ops oldest first" [ [ add; Command.Log "b" ] ]
    (List.map (fun e -> e.Netlog.je_ops) !closed)

let test_closed_txn_rejected () =
  let _, _, nl = setup () in
  let txn = Netlog.begin_txn nl ~app:"t" in
  Netlog.commit nl txn;
  Alcotest.check_raises "apply after close"
    (Invalid_argument "Netlog.apply: transaction already closed") (fun () ->
      ignore (Netlog.apply nl txn (Command.Log "x")));
  (* Abort after commit is a no-op, not an error. *)
  Netlog.abort nl txn;
  T_util.checki "no abort recorded" 0 (Netlog.aborted nl)

let test_restore_preserves_remaining_hard_timeout () =
  let clock, net, nl = setup () in
  ignore
    (Net.send net 1
       (Message.message
          (Message.Flow_mod
             (Message.flow_add ~hard_timeout:100 (Ofp_match.make ~tp_dst:80 ())
                [ Action.Output 1 ]))));
  Clock.advance_to clock 40.;
  let txn = Netlog.begin_txn nl ~app:"t" in
  ignore
    (Netlog.apply nl txn (flow_cmd 1 (Message.flow_delete (Ofp_match.make ~tp_dst:80 ()))));
  Netlog.abort nl txn;
  match Flow_table.entries (Net.switch net 1).Sw.table with
  | [ e ] ->
      T_util.checki "remaining lifetime, not a fresh lease" 60
        e.Flow_entry.hard_timeout
  | _ -> Alcotest.fail "rule should be restored"

let test_effectively_expired_rule_not_resurrected () =
  let clock, net, nl = setup () in
  ignore
    (Net.send net 1
       (Message.message
          (Message.Flow_mod
             (Message.flow_add ~hard_timeout:10 (Ofp_match.make ~tp_dst:80 ())
                [ Action.Output 1 ]))));
  Clock.advance_to clock 10.;
  Net.tick net;
  ignore (Net.poll net);
  T_util.checki "expired naturally" 0 (Flow_table.size (Net.switch net 1).Sw.table);
  (* A delete of an already-gone rule has nothing to restore. *)
  let txn = Netlog.begin_txn nl ~app:"t" in
  ignore
    (Netlog.apply nl txn (flow_cmd 1 (Message.flow_delete (Ofp_match.make ~tp_dst:80 ()))));
  Netlog.abort nl txn;
  T_util.checki "nothing resurrected" 0 (Flow_table.size (Net.switch net 1).Sw.table)

let test_counter_cache_corrects_stats () =
  let _, net, nl = setup () in
  (* Install a rule and push traffic through it so counters are non-zero. *)
  ignore
    (Net.send net 1
       (Message.message
          (Message.Flow_mod
             (Message.flow_add
                (Ofp_match.make ~dl_dst:(Types.mac_of_host 2) ())
                [ Action.Output 1 ]))));
  Net.inject net 1 (T_util.tcp_packet 1 2);
  ignore (Net.poll net);
  (* Delete it inside a transaction, then roll back: the restored rule has
     zeroed hardware counters, banked in the cache. *)
  let txn = Netlog.begin_txn nl ~app:"t" in
  ignore
    (Netlog.apply nl txn
       (flow_cmd 1 (Message.flow_delete (Ofp_match.make ~dl_dst:(Types.mac_of_host 2) ()))));
  Netlog.abort nl txn;
  (match Flow_table.entries (Net.switch net 1).Sw.table with
  | [ e ] -> T_util.checki "hardware counters zeroed" 0 e.Flow_entry.packet_count
  | _ -> Alcotest.fail "rule restored");
  T_util.checkb "cache banked the counters" true (Counter_cache.entries (Netlog.cache nl) > 0);
  (* A stats read through NetLog sees the corrected value. *)
  let txn2 = Netlog.begin_txn nl ~app:"monitor" in
  let replies =
    Netlog.apply nl txn2
      (Command.Stats (1, Message.Flow_stats_request Ofp_match.any))
  in
  Netlog.commit nl txn2;
  match replies with
  | [ { Message.payload = Message.Stats_reply (Message.Flow_stats_reply [ fs ]); _ } ] ->
      T_util.checki "corrected packet count" 1 fs.Message.fs_packet_count
  | _ -> Alcotest.fail "flow stats reply expected"

let test_aggregate_stats_corrected () =
  let _, net, nl = setup () in
  ignore
    (Net.send net 1
       (Message.message
          (Message.Flow_mod
             (Message.flow_add
                (Ofp_match.make ~dl_dst:(Types.mac_of_host 2) ())
                [ Action.Output 1 ]))));
  Net.inject net 1 (T_util.tcp_packet 1 2);
  ignore (Net.poll net);
  let txn = Netlog.begin_txn nl ~app:"t" in
  ignore
    (Netlog.apply nl txn
       (flow_cmd 1 (Message.flow_delete (Ofp_match.make ~dl_dst:(Types.mac_of_host 2) ()))));
  Netlog.abort nl txn;
  let txn2 = Netlog.begin_txn nl ~app:"monitor" in
  let replies =
    Netlog.apply nl txn2
      (Command.Stats (1, Message.Aggregate_stats_request Ofp_match.any))
  in
  Netlog.commit nl txn2;
  match replies with
  | [ { Message.payload = Message.Stats_reply (Message.Aggregate_stats_reply agg); _ } ] ->
      T_util.checki "aggregate packets corrected" 1 agg.packets
  | _ -> Alcotest.fail "aggregate reply expected"

(* Property: for a random batch of flow-mods applied in one transaction,
   abort restores the exact structural network state. *)
let small_pattern =
  QCheck2.Gen.(
    let* tp_dst = opt (oneofl [ 80; 443 ]) in
    let* dl_dst = opt (oneofl [ Types.mac_of_host 1; Types.mac_of_host 2 ]) in
    return (Ofp_match.make ?tp_dst ?dl_dst ()))

let random_flow_mod =
  QCheck2.Gen.(
    let* pattern = small_pattern in
    let* priority = oneofl [ 10; 20 ] in
    let* kind = int_bound 3 in
    let* port = oneofl [ 1; 2; 100 ] in
    return
      (match kind with
      | 0 -> Message.flow_add ~priority pattern [ Action.Output port ]
      | 1 -> Message.flow_delete ~priority pattern
      | 2 -> Message.flow_delete ~strict:true ~priority pattern
      | _ ->
          {
            (Message.flow_add ~priority pattern [ Action.Output port ]) with
            Message.command = Message.Modify;
          }))

let prop_rollback_identity =
  QCheck2.Test.make ~name:"apply;abort is identity on network state" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 6) (pair (int_range 1 3) random_flow_mod))
        (list_size (int_range 0 4) (pair (int_range 1 3) random_flow_mod)))
    (fun (pre, ops) ->
      let _, net, nl = setup () in
      (* Arbitrary pre-existing rules, committed. *)
      let setup_txn = Netlog.begin_txn nl ~app:"setup" in
      List.iter
        (fun (sid, fm) -> ignore (Netlog.apply nl setup_txn (flow_cmd sid fm)))
        pre;
      Netlog.commit nl setup_txn;
      let before = network_shape net in
      let txn = Netlog.begin_txn nl ~app:"t" in
      List.iter
        (fun (sid, fm) -> ignore (Netlog.apply nl txn (flow_cmd sid fm)))
        ops;
      Netlog.abort nl txn;
      network_shape net = before)

(* An application reinstalling a rule is a legitimate counter reset: the
   Add must consume the banked base — and an abort must re-bank it. *)
let test_add_consumes_bank_and_abort_recredits () =
  let _, _net, nl = setup () in
  let pattern = Ofp_match.make ~tp_dst:80 () in
  let cache = Netlog.cache nl in
  Counter_cache.credit cache 1 pattern ~priority:32768 ~packets:9 ~bytes:900;
  let txn = Netlog.begin_txn nl ~app:"t" in
  ignore
    (Netlog.apply nl txn (flow_cmd 1 (Message.flow_add pattern [ Action.Output 1 ])));
  Alcotest.(check (pair int int)) "bank consumed by the reinstall" (0, 0)
    (Counter_cache.base cache 1 pattern ~priority:32768);
  Netlog.abort nl txn;
  Alcotest.(check (pair int int)) "abort re-banked the credit" (9, 900)
    (Counter_cache.base cache 1 pattern ~priority:32768)

let test_committed_add_drops_bank () =
  let _, _net, nl = setup () in
  let pattern = Ofp_match.make ~tp_dst:80 () in
  let cache = Netlog.cache nl in
  Counter_cache.credit cache 1 pattern ~priority:32768 ~packets:9 ~bytes:900;
  let txn = Netlog.begin_txn nl ~app:"t" in
  ignore
    (Netlog.apply nl txn (flow_cmd 1 (Message.flow_add pattern [ Action.Output 1 ])));
  Netlog.commit nl txn;
  Alcotest.(check (pair int int)) "bank stays consumed after commit" (0, 0)
    (Counter_cache.base cache 1 pattern ~priority:32768)

(* NetLog keeps nothing per closed transaction: with no close hook set,
   20,000 more packet-out commits leave the memory reachable from it
   where 10,000 left it. *)
let test_commits_keep_nothing () =
  let _, net, nl = setup () in
  let po =
    {
      Message.po_buffer_id = None;
      po_in_port = None;
      po_actions = [ Action.Output 100 ];
      po_packet = Some (Packet.tcp ~src_host:2 ~dst_host:1 ());
    }
  in
  let commit_packet_outs n =
    for _ = 1 to n do
      let txn = Netlog.begin_txn nl ~app:"t" in
      ignore (Netlog.apply nl txn (Command.Packet (1, po)));
      Netlog.commit nl txn;
      ignore (Net.poll net)
    done
  in
  commit_packet_outs 10_000;
  let words = Obj.reachable_words (Obj.repr nl) in
  commit_packet_outs 20_000;
  T_util.checki "words reachable from the NetLog" words
    (Obj.reachable_words (Obj.repr nl))

let suite =
  [
    Alcotest.test_case "abort undoes add" `Quick test_abort_undoes_add;
    Alcotest.test_case "abort undoes delete" `Quick test_abort_undoes_delete;
    Alcotest.test_case "abort undoes modify" `Quick test_abort_undoes_modify;
    Alcotest.test_case "abort undoes replacing add" `Quick test_abort_undoes_add_that_replaced;
    Alcotest.test_case "multi-switch rollback" `Quick test_multi_switch_transaction_rollback;
    Alcotest.test_case "commit keeps changes" `Quick test_commit_keeps_changes;
    Alcotest.test_case "closed transaction rejected" `Quick test_closed_txn_rejected;
    Alcotest.test_case "remaining hard timeout" `Quick test_restore_preserves_remaining_hard_timeout;
    Alcotest.test_case "expired rule stays dead" `Quick test_effectively_expired_rule_not_resurrected;
    Alcotest.test_case "counter cache corrects flow stats" `Quick test_counter_cache_corrects_stats;
    Alcotest.test_case "counter cache corrects aggregates" `Quick test_aggregate_stats_corrected;
    Alcotest.test_case "add consumes bank, abort re-credits" `Quick
      test_add_consumes_bank_and_abort_recredits;
    Alcotest.test_case "committed add drops bank" `Quick
      test_committed_add_drops_bank;
    Alcotest.test_case "commits keep no history" `Quick test_commits_keep_nothing;
    QCheck_alcotest.to_alcotest prop_rollback_identity;
  ]
