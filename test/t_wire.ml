open Openflow
module Event = Controller.Event
module Command = Controller.Command
module Wire = Legosdn.Wire

let pkt = T_util.tcp_packet 1 2

let sample_events =
  [
    Event.Switch_up
      ( 4,
        {
          Message.datapath_id = 4;
          n_buffers = 256;
          n_tables = 1;
          ports =
            [ { Message.port_no = 1; hw_addr = 77; name = "eth1"; up = true; no_flood = false } ];
        } );
    Event.Switch_down 9;
    Event.Port_status
      ( 2,
        Message.Port_modify,
        { Message.port_no = 3; hw_addr = 5; name = "eth3"; up = false; no_flood = false } );
    Event.Link_up
      { Event.src_switch = 1; src_port = 2; dst_switch = 3; dst_port = 4 };
    Event.Link_down
      { Event.src_switch = 3; src_port = 4; dst_switch = 1; dst_port = 2 };
    Event.Packet_in
      ( 7,
        {
          Message.pi_buffer_id = Some 12;
          pi_in_port = 3;
          pi_reason = Message.No_match;
          pi_packet = pkt;
        } );
    Event.Flow_removed
      ( 2,
        {
          Message.fr_pattern = Ofp_match.make ~tp_dst:80 ();
          fr_cookie = 1L;
          fr_priority = 5;
          fr_reason = Message.Removed_idle;
          fr_duration = 3;
          fr_idle_timeout = 60;
          fr_packet_count = 4;
          fr_byte_count = 400;
        } );
    Event.Stats_reply
      (1, 42, Message.Aggregate_stats_reply { packets = 1; bytes = 2; flows = 3 });
    Event.Tick 12.5;
  ]

let sample_commands =
  [
    Command.install 3 (Ofp_match.make ~tp_dst:80 ()) [ Action.Output 2 ];
    Command.uninstall ~strict:true 1 Ofp_match.any;
    Command.packet_out ~buffer_id:9 2 [ Action.Output Types.port_flood ] None;
    Command.Stats (4, Message.Port_stats_request None);
    Command.Log "hello from the stub";
  ]

let test_event_roundtrips () =
  List.iter
    (fun ev ->
      Alcotest.check T_util.event_t "event roundtrip" ev (Wire.roundtrip_event ev))
    sample_events

let test_command_roundtrips () =
  List.iter
    (fun cmd ->
      Alcotest.check T_util.command_t "command roundtrip" cmd
        (Wire.decode_command (Wire.encode_command cmd)))
    sample_commands

let test_command_list_roundtrip () =
  Alcotest.(check (list T_util.command_t)) "list roundtrip" sample_commands
    (Wire.roundtrip_commands sample_commands);
  Alcotest.(check (list T_util.command_t)) "empty list" []
    (Wire.roundtrip_commands [])

let test_sizes_are_positive () =
  List.iter
    (fun ev -> T_util.checkb "positive size" true (Wire.event_size ev > 0))
    sample_events

let test_garbage_rejected () =
  T_util.checkb "garbage event rejected" true
    (try
       ignore (Wire.decode_event (Bytes.of_string "\xff\x00"));
       false
     with Wire.Decode_error _ -> true);
  T_util.checkb "empty command list vs truncation" true
    (try
       ignore (Wire.decode_commands (Bytes.of_string "\x00"));
       false
     with Wire.Decode_error _ -> true)

let prop_packet_in_roundtrip =
  QCheck2.Test.make ~name:"packet_in events roundtrip for any packet" ~count:300
    T_util.Gen.packet (fun p ->
      let ev =
        Event.Packet_in
          ( 1,
            {
              Message.pi_buffer_id = None;
              pi_in_port = 2;
              pi_reason = Message.Action_to_controller;
              pi_packet = p;
            } )
      in
      Wire.roundtrip_event ev = ev)

(* ------------------------------------------------------------------ *)
(* The reusable buffer every sandbox ships through. A scratch left dirty
   by previous encodes must write exactly the bytes a fresh writer
   writes, for every message kind; and the one decoder must reject torn
   frames at every truncation boundary. *)

let test_scratch_bytes_equal_fresh () =
  let s = Wire.scratch ~capacity:8 () in
  (* One scratch across the whole sample set, so each encode runs on a
     buffer still holding the previous event's bytes. *)
  List.iter
    (fun ev ->
      let got, n = Wire.roundtrip_event_scratch s ev in
      Alcotest.check T_util.event_t "scratch roundtrip value" ev got;
      T_util.checki "scratch size = fresh size" (Wire.event_size ev) n;
      T_util.checkb "scratch bytes = fresh bytes" true
        (Bytes.equal (Wire.scratch_contents s) (Wire.encode_event ev)))
    sample_events;
  let got, n = Wire.roundtrip_commands_scratch s sample_commands in
  Alcotest.(check (list T_util.command_t)) "scratch command list" sample_commands got;
  T_util.checkb "scratch command bytes = fresh bytes" true
    (Bytes.equal (Wire.scratch_contents s) (Wire.encode_commands sample_commands));
  T_util.checki "scratch command size = fresh size"
    (Bytes.length (Wire.encode_commands sample_commands))
    n;
  let _, n_empty = Wire.roundtrip_commands_scratch s [] in
  T_util.checkb "empty command list encodes" true (n_empty > 0)

let decode_error f =
  try
    ignore (f ());
    false
  with Wire.Decode_error _ -> true

let test_torn_frames_equal_fresh () =
  (* Truncate every event's encoding at every byte boundary: the decoder
     must reject every prefix (short read / torn frame) and accept only
     the full frame. *)
  List.iter
    (fun ev ->
      let full = Wire.encode_event ev in
      for cut = 0 to Bytes.length full - 1 do
        T_util.checkb
          (Printf.sprintf "cut at %d/%d rejected" cut (Bytes.length full))
          true
          (decode_error (fun () -> Wire.decode_event (Bytes.sub full 0 cut)))
      done;
      Alcotest.check T_util.event_t "full frame accepted" ev
        (Wire.decode_event full))
    sample_events;
  let full = Wire.encode_commands sample_commands in
  for cut = 0 to Bytes.length full - 1 do
    T_util.checkb "torn command list rejected" true
      (decode_error (fun () -> Wire.decode_commands (Bytes.sub full 0 cut)))
  done

let prop_scratch_equals_fresh =
  (* One shared scratch across all cases: every case reuses the dirty
     buffer of the previous one. *)
  let s = Wire.scratch () in
  QCheck2.Test.make ~name:"scratch path == fresh path for any packet_in"
    ~count:300 T_util.Gen.packet (fun p ->
      let ev =
        Event.Packet_in
          ( 3,
            {
              Message.pi_buffer_id = Some 7;
              pi_in_port = 5;
              pi_reason = Message.No_match;
              pi_packet = p;
            } )
      in
      let got, n = Wire.roundtrip_event_scratch s ev in
      got = ev
      && n = Wire.event_size ev
      && Bytes.equal (Wire.scratch_contents s) (Wire.encode_event ev))

let prop_flow_commands_roundtrip =
  QCheck2.Test.make ~name:"flow commands roundtrip for any flow_mod" ~count:300
    T_util.Gen.flow_mod (fun fm ->
      let cmd = Command.Flow (2, fm) in
      Wire.decode_command (Wire.encode_command cmd) = cmd)

let suite =
  [
    Alcotest.test_case "event roundtrips" `Quick test_event_roundtrips;
    Alcotest.test_case "command roundtrips" `Quick test_command_roundtrips;
    Alcotest.test_case "command list roundtrip" `Quick test_command_list_roundtrip;
    Alcotest.test_case "sizes positive" `Quick test_sizes_are_positive;
    Alcotest.test_case "garbage rejected" `Quick test_garbage_rejected;
    Alcotest.test_case "scratch bytes equal fresh" `Quick
      test_scratch_bytes_equal_fresh;
    Alcotest.test_case "torn frames equal fresh" `Quick
      test_torn_frames_equal_fresh;
    QCheck_alcotest.to_alcotest prop_packet_in_roundtrip;
    QCheck_alcotest.to_alcotest prop_scratch_equals_fresh;
    QCheck_alcotest.to_alcotest prop_flow_commands_roundtrip;
  ]
