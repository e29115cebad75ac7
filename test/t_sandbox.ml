open Openflow
module Sandbox = Legosdn.Sandbox
module Checkpoint = Legosdn.Checkpoint
module App_sig = Controller.App_sig
module Event = Controller.Event

let packet_in ?(sid = 1) ?(in_port = 100) src dst =
  Event.Packet_in
    ( sid,
      {
        Message.pi_buffer_id = None;
        pi_in_port = in_port;
        pi_reason = Message.No_match;
        pi_packet = T_util.tcp_packet src dst;
      } )

let ls_sandbox ?(bug = None) ?(every = 1) () =
  let base : App_sig.app = (App_sig.app (module Apps.Learning_switch)) in
  let m = match bug with None -> base | Some b -> Apps.Faulty.wrap ~bug:b base in
  Sandbox.create ~ckpt:(Checkpoint.create ~every ()) m

let ctx = App_sig.null_context

let test_done_verdict_and_commands () =
  let box = ls_sandbox () in
  Sandbox.prepare box;
  match Sandbox.deliver box ctx (packet_in 1 2) with
  | Sandbox.Done commands ->
      T_util.checkb "flood for unknown dst" true (List.length commands = 1);
      T_util.checki "one event handled" 1 (Sandbox.events_handled box)
  | _ -> Alcotest.fail "expected Done"

let test_crash_verdict_contains_detail () =
  let box =
    ls_sandbox ~bug:(Some (Apps.Bug_model.crash_on Event.K_packet_in)) ()
  in
  Sandbox.prepare box;
  (match Sandbox.deliver box ctx (packet_in 1 2) with
  | Sandbox.Crashed { detail; partial } ->
      T_util.checkb "detail mentions injection" true
        (String.length detail > 0);
      T_util.checkb "no partial commands" true (partial = [])
  | _ -> Alcotest.fail "expected Crashed");
  T_util.checki "crash counted" 1 (Sandbox.crash_count box);
  T_util.checkb "still alive (policy decides death)" true (Sandbox.alive box)

let test_partial_crash_carries_commands () =
  let bug =
    Apps.Bug_model.make
      (Apps.Bug_model.On_kind Event.K_packet_in)
      (Apps.Bug_model.Crash_partial 1.0)
  in
  let box =
    Sandbox.create
      ~ckpt:(Checkpoint.create ~every:1 ())
      (Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Flooder)))
  in
  Sandbox.prepare box;
  match Sandbox.deliver box ctx (packet_in 1 2) with
  | Sandbox.Crashed { partial; _ } ->
      T_util.checki "both commands escaped" 2 (List.length partial)
  | _ -> Alcotest.fail "expected Crashed with partial"

let test_hang_verdict () =
  let bug =
    Apps.Bug_model.make (Apps.Bug_model.On_kind Event.K_packet_in)
      Apps.Bug_model.Hang
  in
  let box = ls_sandbox ~bug:(Some bug) () in
  Sandbox.prepare box;
  T_util.checkb "hung verdict" true (Sandbox.deliver box ctx (packet_in 1 2) = Sandbox.Hung)

let test_crash_leaves_state_untouched () =
  let bug = Apps.Bug_model.crash_on_nth Event.K_packet_in 2 in
  let box = ls_sandbox ~bug:(Some bug) () in
  Sandbox.prepare box;
  ignore (Sandbox.deliver box ctx (packet_in 1 2));
  Sandbox.confirm box (packet_in 1 2);
  let snapshot_before = Sandbox.state_size box in
  Sandbox.prepare box;
  (match Sandbox.deliver box ctx (packet_in 2 1) with
  | Sandbox.Crashed _ -> ()
  | _ -> Alcotest.fail "expected crash on 2nd packet_in");
  T_util.checki "state unchanged by crash" snapshot_before (Sandbox.state_size box)

let test_recover_restores_and_replays () =
  let box = ls_sandbox ~every:5 () in
  Sandbox.prepare box;
  (* Three successful events journaled against one snapshot. *)
  List.iter
    (fun ev ->
      (match Sandbox.deliver box ctx ev with
      | Sandbox.Done _ -> ()
      | _ -> Alcotest.fail "healthy app");
      Sandbox.confirm box ev)
    [ packet_in 1 2; packet_in 2 1; packet_in 3 1 ];
  let size_before = Sandbox.state_size box in
  let recovery = Sandbox.recover box ctx in
  T_util.checki "replayed the journal" 3 recovery.Sandbox.replayed;
  T_util.checki "nothing dropped" 0 recovery.Sandbox.dropped_in_replay;
  T_util.checki "state reconstructed exactly" size_before (Sandbox.state_size box)

let test_recover_without_checkpoint_reboots () =
  let box = ls_sandbox () in
  (* No prepare/checkpoint ever taken. *)
  let recovery = Sandbox.recover box ctx in
  T_util.checki "nothing to replay" 0 recovery.Sandbox.replayed

let test_revert_last () =
  let box = ls_sandbox () in
  Sandbox.prepare box;
  let before = Sandbox.state_size box in
  (match Sandbox.deliver box ctx (packet_in 1 2) with
  | Sandbox.Done _ -> ()
  | _ -> Alcotest.fail "healthy app");
  Sandbox.revert_last box;
  T_util.checki "state reverted" before (Sandbox.state_size box)

let test_rpc_bytes_grow () =
  let box = ls_sandbox () in
  Sandbox.prepare box;
  ignore (Sandbox.deliver box ctx (packet_in 1 2));
  let after_one = Sandbox.rpc_bytes box in
  T_util.checkb "serialization accounted" true (after_one > 0);
  ignore (Sandbox.deliver box ctx (packet_in 2 1));
  T_util.checkb "grows monotonically" true (Sandbox.rpc_bytes box > after_one)

let test_disable_enable () =
  let box = ls_sandbox () in
  Sandbox.disable box;
  T_util.checkb "disabled" false (Sandbox.alive box);
  Sandbox.enable box;
  T_util.checkb "re-enabled" true (Sandbox.alive box)

let test_replay_drops_recrashing_events () =
  (* k=5; event 2 is poisoned only *after* state rollback re-arms the bug —
     here we simulate by a bug on every 2nd packet_in: during replay the
     same event crashes again and is dropped. *)
  let bug = Apps.Bug_model.crash_on_nth Event.K_packet_in 2 in
  let box = ls_sandbox ~bug:(Some bug) ~every:5 () in
  Sandbox.prepare box;
  (match Sandbox.deliver box ctx (packet_in 1 2) with
  | Sandbox.Done _ -> Sandbox.confirm box (packet_in 1 2)
  | _ -> Alcotest.fail "first event fine");
  (* Second crashes. Recover: replay journal = [event1] which is fine. *)
  (match Sandbox.deliver box ctx (packet_in 2 1) with
  | Sandbox.Crashed _ -> ()
  | _ -> Alcotest.fail "second should crash");
  let recovery = Sandbox.recover box ctx in
  T_util.checki "journal replayed" 1 recovery.Sandbox.replayed;
  T_util.checki "no drops" 0 recovery.Sandbox.dropped_in_replay

(* The sandbox is the one place a state becomes an image: a take stores
   the very bytes [snapshot_bytes] returns, whichever is asked first. *)
let test_serializes_once () =
  let box = ls_sandbox () in
  let image () =
    match Checkpoint.restore_point (Sandbox.checkpoint_store box) with
    | Some (snap, _) -> snap
    | None -> Alcotest.fail "restore point expected"
  in
  let deliver ev =
    match Sandbox.deliver box ctx ev with
    | Sandbox.Done _ -> Sandbox.confirm box ev
    | _ -> Alcotest.fail "healthy app"
  in
  deliver (packet_in 1 2);
  Sandbox.checkpoint_now box;
  T_util.checkb "a take's image is the sandbox's bytes" true
    (image () == Sandbox.snapshot_bytes box);
  deliver (packet_in 2 1);
  let bytes = Sandbox.snapshot_bytes box in
  Sandbox.checkpoint_now box;
  T_util.checkb "a take stores the bytes read before it" true
    (image () == bytes);
  T_util.checki "the state's size is the image's" (Bytes.length bytes)
    (Sandbox.state_size box)

(* A restore keeps the bytes it was handed as the state's image, so the
   take after it, or a recovery with nothing to replay, serializes
   nothing. *)
let test_restore_keeps_bytes () =
  let box = ls_sandbox () in
  let deliver ev =
    match Sandbox.deliver box ctx ev with
    | Sandbox.Done _ -> Sandbox.confirm box ev
    | _ -> Alcotest.fail "healthy app"
  in
  deliver (packet_in 1 2);
  let shipped = Bytes.copy (Sandbox.snapshot_bytes box) in
  Sandbox.restore_bytes box shipped;
  T_util.checkb "a restored state's image is the bytes handed" true
    (Sandbox.snapshot_bytes box == shipped);
  deliver (packet_in 2 1);
  Sandbox.checkpoint_now box;
  let snap =
    match Checkpoint.restore_point (Sandbox.checkpoint_store box) with
    | Some (snap, []) -> snap
    | _ -> Alcotest.fail "a restore point with an empty journal expected"
  in
  let recovery = Sandbox.recover box ctx in
  T_util.checki "nothing replayed" 0 recovery.Sandbox.replayed;
  T_util.checkb "a recovered state's image is the checkpoint's bytes" true
    (Sandbox.snapshot_bytes box == snap)

let suite =
  [
    Alcotest.test_case "done verdict" `Quick test_done_verdict_and_commands;
    Alcotest.test_case "crash verdict" `Quick test_crash_verdict_contains_detail;
    Alcotest.test_case "partial crash commands" `Quick test_partial_crash_carries_commands;
    Alcotest.test_case "hang verdict" `Quick test_hang_verdict;
    Alcotest.test_case "crash leaves state" `Quick test_crash_leaves_state_untouched;
    Alcotest.test_case "recover restores and replays" `Quick test_recover_restores_and_replays;
    Alcotest.test_case "recover without checkpoint" `Quick test_recover_without_checkpoint_reboots;
    Alcotest.test_case "revert last delivery" `Quick test_revert_last;
    Alcotest.test_case "rpc bytes accounting" `Quick test_rpc_bytes_grow;
    Alcotest.test_case "disable/enable" `Quick test_disable_enable;
    Alcotest.test_case "replay survives re-crashes" `Quick test_replay_drops_recrashing_events;
    Alcotest.test_case "a sandbox serializes a state once" `Quick
      test_serializes_once;
    Alcotest.test_case "a restore keeps the bytes it was handed" `Quick
      test_restore_keeps_bytes;
  ]
