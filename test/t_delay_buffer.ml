open Openflow
open Netsim
module Delay_buffer = Legosdn.Delay_buffer
module Command = Controller.Command

let setup () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 2) in
  ignore (Net.poll net);
  (net, Delay_buffer.create net)

let add_cmd sid =
  Command.Flow (sid, Message.flow_add Ofp_match.any [ Action.Output 1 ])

let test_writes_delayed_until_commit () =
  let net, db = setup () in
  let txn = Delay_buffer.begin_txn db ~app:"t" in
  ignore (Delay_buffer.apply db txn (add_cmd 1));
  T_util.checki "nothing installed before commit" 0
    (Flow_table.size (Net.switch net 1).Sw.table);
  Delay_buffer.commit db txn;
  T_util.checki "installed at commit" 1 (Flow_table.size (Net.switch net 1).Sw.table)

let test_abort_discards () =
  let net, db = setup () in
  let txn = Delay_buffer.begin_txn db ~app:"t" in
  ignore (Delay_buffer.apply db txn (add_cmd 1));
  ignore (Delay_buffer.apply db txn (add_cmd 2));
  Delay_buffer.abort db txn;
  (* The buffer is gone: a commit of the closed transaction flushes
     nothing. *)
  Delay_buffer.commit db txn;
  T_util.checki "nothing ever reached the network" 0
    (Flow_table.size (Net.switch net 1).Sw.table
     + Flow_table.size (Net.switch net 2).Sw.table)

let test_commit_preserves_order () =
  let net, db = setup () in
  let txn = Delay_buffer.begin_txn db ~app:"t" in
  (* Install then delete: if order were reversed the rule would survive. *)
  ignore (Delay_buffer.apply db txn (add_cmd 1));
  ignore
    (Delay_buffer.apply db txn
       (Command.Flow (1, Message.flow_delete Ofp_match.any)));
  Delay_buffer.commit db txn;
  T_util.checki "delete executed after add" 0
    (Flow_table.size (Net.switch net 1).Sw.table)

let test_reads_bypass_buffer () =
  (* The prototype flaw the paper admits: a read inside the transaction
     does not see the transaction's own buffered writes. *)
  let _, db = setup () in
  let txn = Delay_buffer.begin_txn db ~app:"t" in
  ignore (Delay_buffer.apply db txn (add_cmd 1));
  let replies =
    Delay_buffer.apply db txn
      (Command.Stats (1, Message.Flow_stats_request Ofp_match.any))
  in
  (match replies with
  | [ { Message.payload = Message.Stats_reply (Message.Flow_stats_reply stats); _ } ]
    ->
      T_util.checki "own write invisible to read" 0 (List.length stats)
  | _ -> Alcotest.fail "stats reply expected");
  Delay_buffer.abort db txn

let suite =
  [
    Alcotest.test_case "writes delayed until commit" `Quick test_writes_delayed_until_commit;
    Alcotest.test_case "abort discards buffer" `Quick test_abort_discards;
    Alcotest.test_case "commit preserves order" `Quick test_commit_preserves_order;
    Alcotest.test_case "reads bypass buffer" `Quick test_reads_bypass_buffer;
  ]
