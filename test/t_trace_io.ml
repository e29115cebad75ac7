open Openflow
module Trace_io = Workload.Trace_io
module Event = Controller.Event

let sample_trace =
  [
    Event.Switch_down 3;
    Event.Packet_in
      ( 1,
        {
          Message.pi_buffer_id = Some 4;
          pi_in_port = 2;
          pi_reason = Message.No_match;
          pi_packet = T_util.tcp_packet 1 2;
        } );
    Event.Tick 3.25;
    Event.Link_down
      { Event.src_switch = 1; src_port = 1; dst_switch = 2; dst_port = 1 };
  ]

let test_encode_decode () =
  Alcotest.(check (list T_util.event_t)) "roundtrip" sample_trace
    (Trace_io.decode (Trace_io.encode sample_trace))

let test_empty_trace () =
  Alcotest.(check (list T_util.event_t)) "empty roundtrip" []
    (Trace_io.decode (Trace_io.encode []))

let test_file_roundtrip () =
  let path = Filename.temp_file "legosdn" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save path sample_trace;
      Alcotest.(check (list T_util.event_t)) "file roundtrip" sample_trace
        (Trace_io.load path))

let test_bad_magic () =
  T_util.checkb "garbage rejected" true
    (try
       ignore (Trace_io.decode (Bytes.of_string "NOTATRACE_______"));
       false
     with Failure _ -> true)

let test_truncation () =
  let b = Trace_io.encode sample_trace in
  let cut = Bytes.sub b 0 (Bytes.length b - 3) in
  T_util.checkb "truncation rejected" true
    (try
       ignore (Trace_io.decode cut);
       false
     with Failure _ -> true)

let test_recorder () =
  let r = Trace_io.recorder () in
  List.iter (Trace_io.record r) sample_trace;
  T_util.checki "length" 4 (Trace_io.length r);
  Alcotest.(check (list T_util.event_t)) "order preserved" sample_trace
    (Trace_io.recorded r)

let test_recorded_trace_feeds_sts () =
  (* The intended workflow: record a crashing trace, minimize it offline. *)
  let module Bug = struct
    type state = unit

    let name = "bug"
    let subscriptions = [ Event.K_switch_down ]
    let init () = ()

    let handle _ () = function
      | Event.Switch_down 3 -> failwith "boom"
      | _ -> ((), ([] : Controller.Command.t list))
  end in
  let loaded = Trace_io.decode (Trace_io.encode sample_trace) in
  let minimal, _ =
    Legosdn.Sts.minimize (module Bug) Controller.App_sig.null_context loaded
  in
  Alcotest.(check (list T_util.event_t)) "culprit recovered from disk format"
    [ Event.Switch_down 3 ] minimal

(* Property: write → read is the identity for arbitrary traces covering
   all nine event constructors — the trust anchor for fuzzer reproducer
   files, which embed traces in this format. *)
module G = struct
  open QCheck2.Gen

  let sid = int_range 1 64
  let port_no = int_range 1 48
  let name_string = string_size ~gen:(char_range 'a' 'z') (int_bound 12)

  (* Exact-roundtrip floats: Tick encodes via Int64.bits_of_float, so any
     finite float works; quarters keep failures readable. *)
  let finite_float = map (fun i -> float_of_int i /. 4.) (int_bound 400_000)

  let port_desc =
    let* port_no = port_no in
    let* hw_addr = T_util.Gen.mac in
    let* name = name_string in
    let* up = bool and* no_flood = bool in
    return { Message.port_no; hw_addr; name; up; no_flood }

  let features =
    let* datapath_id = sid in
    let* n_buffers = int_bound 256 and* n_tables = int_range 1 16 in
    let* ports = list_size (int_bound 4) port_desc in
    return { Message.datapath_id; n_buffers; n_tables; ports }

  let packet_in =
    let* pi_buffer_id = opt (int_bound 0xFFFF) in
    let* pi_in_port = port_no in
    let* pi_reason = oneofl Message.[ No_match; Action_to_controller ] in
    let* pi_packet = T_util.Gen.packet in
    return { Message.pi_buffer_id; pi_in_port; pi_reason; pi_packet }

  let flow_removed =
    let* fr_pattern = T_util.Gen.ofp_match in
    let* fr_cookie = map Int64.of_int (int_bound 1_000_000) in
    let* fr_priority = int_bound 0xFFFF in
    let* fr_reason =
      oneofl Message.[ Removed_idle; Removed_hard; Removed_delete ]
    in
    let* fr_duration = int_bound 0xFFFF in
    let* fr_idle_timeout = int_bound 300 in
    let* fr_packet_count = int_bound 1_000_000 in
    let* fr_byte_count = int_bound 1_000_000 in
    return
      {
        Message.fr_pattern;
        fr_cookie;
        fr_priority;
        fr_reason;
        fr_duration;
        fr_idle_timeout;
        fr_packet_count;
        fr_byte_count;
      }

  let flow_stat =
    let* fs_pattern = T_util.Gen.ofp_match in
    let* fs_priority = int_bound 0xFFFF in
    let* fs_cookie = map Int64.of_int (int_bound 1_000_000) in
    let* fs_duration = int_bound 0xFFFF in
    let* fs_idle_timeout = int_bound 300 and* fs_hard_timeout = int_bound 300 in
    let* fs_packet_count = int_bound 1_000_000 in
    let* fs_byte_count = int_bound 1_000_000 in
    let* fs_actions = T_util.Gen.actions in
    return
      {
        Message.fs_pattern;
        fs_priority;
        fs_cookie;
        fs_duration;
        fs_idle_timeout;
        fs_hard_timeout;
        fs_packet_count;
        fs_byte_count;
        fs_actions;
      }

  let port_stat =
    let* ps_port_no = port_no in
    let* ps_rx_packets = int_bound 1_000_000 in
    let* ps_tx_packets = int_bound 1_000_000 in
    let* ps_rx_bytes = int_bound 1_000_000 in
    let* ps_tx_bytes = int_bound 1_000_000 in
    let* ps_rx_dropped = int_bound 1_000 in
    let* ps_tx_dropped = int_bound 1_000 in
    return
      {
        Message.ps_port_no;
        ps_rx_packets;
        ps_tx_packets;
        ps_rx_bytes;
        ps_tx_bytes;
        ps_rx_dropped;
        ps_tx_dropped;
      }

  let stats_reply =
    oneof
      [
        map
          (fun l -> Message.Flow_stats_reply l)
          (list_size (int_bound 3) flow_stat);
        (let* packets = int_bound 1_000_000 in
         let* bytes = int_bound 1_000_000 in
         let* flows = int_bound 1_000 in
         return (Message.Aggregate_stats_reply { packets; bytes; flows }));
        map
          (fun l -> Message.Port_stats_reply l)
          (list_size (int_bound 3) port_stat);
        map (fun s -> Message.Description_reply s) name_string;
      ]

  let link =
    let* src_switch = sid and* dst_switch = sid in
    let* src_port = port_no and* dst_port = port_no in
    return { Event.src_switch; src_port; dst_switch; dst_port }

  let event =
    oneof
      [
        map2 (fun s f -> Event.Switch_up (s, f)) sid features;
        map (fun s -> Event.Switch_down s) sid;
        (let* s = sid in
         let* reason =
           oneofl Message.[ Port_add; Port_delete; Port_modify ]
         in
         let* desc = port_desc in
         return (Event.Port_status (s, reason, desc)));
        map (fun l -> Event.Link_up l) link;
        map (fun l -> Event.Link_down l) link;
        map2 (fun s pi -> Event.Packet_in (s, pi)) sid packet_in;
        map2 (fun s fr -> Event.Flow_removed (s, fr)) sid flow_removed;
        (let* s = sid and* xid = int_bound 0xFFFF and* sr = stats_reply in
         return (Event.Stats_reply (s, xid, sr)));
        map (fun t -> Event.Tick t) finite_float;
      ]

  let trace = list_size (int_bound 16) event
end

let prop_roundtrip_identity =
  QCheck2.Test.make ~name:"arbitrary trace write/read identity" ~count:200
    G.trace (fun trace -> Trace_io.decode (Trace_io.encode trace) = trace)

let suite =
  [
    Alcotest.test_case "encode/decode" `Quick test_encode_decode;
    Alcotest.test_case "empty trace" `Quick test_empty_trace;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "bad magic" `Quick test_bad_magic;
    Alcotest.test_case "truncation" `Quick test_truncation;
    Alcotest.test_case "recorder" `Quick test_recorder;
    Alcotest.test_case "trace feeds STS" `Quick test_recorded_trace_feeds_sts;
    QCheck_alcotest.to_alcotest prop_roundtrip_identity;
  ]
