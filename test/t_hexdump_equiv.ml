module App_sig = Controller.App_sig
(* Hexdump formatting and the sandbox recovery-equivalence property. *)

open Openflow
module Sandbox = Legosdn.Sandbox
module Checkpoint = Legosdn.Checkpoint
module Event = Controller.Event

let test_hexdump_layout () =
  let dump = Hexdump.of_bytes (Bytes.of_string "OpenFlow rules everything ok?!") in
  let lines = String.split_on_char '\n' dump |> List.filter (( <> ) "") in
  T_util.checki "two lines for 30 bytes" 2 (List.length lines);
  let first = List.hd lines in
  T_util.checkb "offset column" true (String.length first > 8 && String.sub first 0 8 = "00000000");
  T_util.checkb "ascii gutter" true (String.contains first '|')

let test_hexdump_nonprintable () =
  let dump = Hexdump.of_bytes (Bytes.of_string "\x00\x01ab") in
  T_util.checkb "nonprintables dotted" true
    (let gutter = String.index dump '|' in
     String.sub dump (gutter + 1) 4 = "..ab")

let test_hexdump_empty () =
  Alcotest.(check string) "empty input, empty dump" "" (Hexdump.of_bytes Bytes.empty)

let test_hexdump_message () =
  let dump = Hexdump.of_message (Message.message ~xid:7 Message.Hello) in
  (* version 01, type 00, length 0008, xid 00000007 *)
  T_util.checkb "wire header visible" true
    (String.length dump > 0
     && String.sub dump 10 23 = "01 00 00 08 00 00 00 07")

(* Recovery equivalence: restoring the checkpoint and replaying the journal
   must land the app in exactly the state it already had — for any packet
   sequence and any checkpoint cadence. The recovered image may be the
   checkpoint's own bytes, so a new source learned afterwards, by the
   recovered box and by a twin that never crashed, makes both serialize
   what they hold. *)
let prop_recover_is_identity =
  QCheck2.Test.make ~name:"sandbox recovery reconstructs state exactly" ~count:100
    QCheck2.Gen.(
      pair (int_range 1 7)
        (list_size (int_range 1 20) (pair (int_range 1 5) (int_range 1 5))))
    (fun (k, pairs) ->
      let box () =
        Sandbox.create
          ~ckpt:(Checkpoint.create ~every:k ())
          (App_sig.app (module Apps.Learning_switch))
      in
      let feed box (src, dst) =
        let ev =
          Event.Packet_in
            ( 1,
              {
                Message.pi_buffer_id = None;
                pi_in_port = 100 + src;
                pi_reason = Message.No_match;
                pi_packet = T_util.tcp_packet src dst;
              } )
        in
        Sandbox.prepare box;
        match Sandbox.deliver box App_sig.null_context ev with
        | Sandbox.Done _ -> Sandbox.confirm box ev
        | _ -> ()
      in
      let crashed = box () and twin = box () in
      List.iter (fun p -> feed crashed p; feed twin p) pairs;
      let before = Sandbox.snapshot_bytes crashed in
      let _ = Sandbox.recover crashed App_sig.null_context in
      let same = Sandbox.snapshot_bytes crashed = before in
      feed crashed (6, 1);
      feed twin (6, 1);
      same && Sandbox.snapshot_bytes crashed = Sandbox.snapshot_bytes twin)

let suite =
  [
    Alcotest.test_case "hexdump layout" `Quick test_hexdump_layout;
    Alcotest.test_case "hexdump nonprintables" `Quick test_hexdump_nonprintable;
    Alcotest.test_case "hexdump empty" `Quick test_hexdump_empty;
    Alcotest.test_case "hexdump message header" `Quick test_hexdump_message;
    QCheck_alcotest.to_alcotest prop_recover_is_identity;
  ]
