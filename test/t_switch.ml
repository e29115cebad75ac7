open Openflow
open Netsim

let pkt = Packet.tcp ~src_host:1 ~dst_host:2 ()

let fresh () = Sw.create ~id:1 ~port_nos:[ 1; 2; 3 ]

(* Distinct requests need distinct xids now that switches dedup
   state-altering messages by xid (retransmission suppression). *)
let send ?(xid = 5) sw payload =
  Sw.handle_message sw ~now:0. (Message.message ~xid payload)

let test_miss_buffers_and_punts () =
  let sw = fresh () in
  let fwd = Sw.process_packet sw ~now:0. ~in_port:1 pkt in
  T_util.checkb "no transmits" true (fwd.Sw.transmits = []);
  (match fwd.Sw.punts with
  | [ pi ] ->
      T_util.checkb "no_match reason" true (pi.Message.pi_reason = Message.No_match);
      T_util.checkb "buffered" true (pi.Message.pi_buffer_id <> None);
      T_util.checki "ingress port" 1 pi.Message.pi_in_port
  | _ -> Alcotest.fail "expected one punt");
  T_util.checkb "not matched" false fwd.Sw.matched

let test_match_forwards_and_counts () =
  let sw = fresh () in
  ignore
    (send sw
       (Message.Flow_mod (Message.flow_add Ofp_match.any [ Action.Output 2 ])));
  let fwd = Sw.process_packet sw ~now:0. ~in_port:1 pkt in
  Alcotest.(check (list int)) "forwarded to port 2" [ 2 ]
    (List.map snd fwd.Sw.transmits);
  (match Flow_table.entries sw.Sw.table with
  | [ e ] ->
      T_util.checki "packet counter" 1 e.Flow_entry.packet_count;
      T_util.checki "byte counter" (Packet.size pkt) e.Flow_entry.byte_count
  | _ -> Alcotest.fail "one entry");
  let p = Option.get (Sw.port sw 1) in
  T_util.checki "rx counted" 1 p.Sw.rx_packets

let test_flood_excludes_ingress () =
  let sw = fresh () in
  ignore
    (send sw
       (Message.Flow_mod
          (Message.flow_add Ofp_match.any [ Action.Output Types.port_flood ])));
  let fwd = Sw.process_packet sw ~now:0. ~in_port:2 pkt in
  Alcotest.(check (list int)) "flood to all but ingress" [ 1; 3 ]
    (List.sort compare (List.map snd fwd.Sw.transmits))

let test_flood_skips_down_ports () =
  let sw = fresh () in
  ignore (Sw.set_port sw 3 ~up:false);
  ignore
    (send sw
       (Message.Flow_mod
          (Message.flow_add Ofp_match.any [ Action.Output Types.port_flood ])));
  let fwd = Sw.process_packet sw ~now:0. ~in_port:2 pkt in
  Alcotest.(check (list int)) "down port skipped" [ 1 ]
    (List.map snd fwd.Sw.transmits)

let test_output_to_down_port_drops () =
  let sw = fresh () in
  ignore (Sw.set_port sw 2 ~up:false);
  ignore
    (send sw
       (Message.Flow_mod (Message.flow_add Ofp_match.any [ Action.Output 2 ])));
  let fwd = Sw.process_packet sw ~now:0. ~in_port:1 pkt in
  T_util.checkb "copy dropped" true (fwd.Sw.transmits = []);
  T_util.checki "tx_dropped counted" 1 (Option.get (Sw.port sw 2)).Sw.tx_dropped

let test_output_to_controller_punts () =
  let sw = fresh () in
  ignore
    (send sw
       (Message.Flow_mod
          (Message.flow_add Ofp_match.any [ Action.Output Types.port_controller ])));
  let fwd = Sw.process_packet sw ~now:0. ~in_port:1 pkt in
  match fwd.Sw.punts with
  | [ pi ] ->
      T_util.checkb "reason action" true
        (pi.Message.pi_reason = Message.Action_to_controller)
  | _ -> Alcotest.fail "expected a punt"

let test_packet_out_releases_buffer () =
  let sw = fresh () in
  let fwd = Sw.process_packet sw ~now:0. ~in_port:1 pkt in
  let buffer_id =
    match fwd.Sw.punts with
    | [ pi ] -> Option.get pi.Message.pi_buffer_id
    | _ -> Alcotest.fail "expected punt"
  in
  let replies, fwd2 =
    send sw
      (Message.Packet_out
         {
           po_buffer_id = Some buffer_id;
           po_in_port = Some 1;
           po_actions = [ Action.Output 3 ];
           po_packet = None;
         })
  in
  T_util.checkb "no replies" true (replies = []);
  Alcotest.(check (list int)) "buffered packet sent" [ 3 ]
    (List.map snd fwd2.Sw.transmits);
  (* Second release of the same buffer must fail: the buffer is gone. A
     fresh xid marks this as a new request, not a retransmission. *)
  let replies2, fwd3 =
    send ~xid:6 sw
      (Message.Packet_out
         {
           po_buffer_id = Some buffer_id;
           po_in_port = Some 1;
           po_actions = [ Action.Output 3 ];
           po_packet = None;
         })
  in
  T_util.checkb "stale buffer errors" true
    (match replies2 with
    | [ { Message.payload = Message.Error _; _ } ] -> true
    | _ -> false);
  T_util.checkb "nothing transmitted" true (fwd3.Sw.transmits = [])

(* Packet-ins nobody releases by buffer id (the controller answered with
   an inline copy) must not pile up: the switch holds the newest
   [n_buffers] of them, and only those can still be released. *)
let test_buffers_stay_bounded () =
  let sw = fresh () in
  let n = (Sw.features sw).Message.n_buffers in
  let ids =
    List.init (4 * n) (fun _ ->
        match (Sw.process_packet sw ~now:0. ~in_port:1 pkt).Sw.punts with
        | [ pi ] -> Option.get pi.Message.pi_buffer_id
        | _ -> Alcotest.fail "expected punt")
  in
  T_util.checki "buffers held" n (Hashtbl.length sw.Sw.buffers);
  let release xid id =
    snd
      (send ~xid sw
         (Message.Packet_out
            {
              po_buffer_id = Some id;
              po_in_port = Some 1;
              po_actions = [ Action.Output 3 ];
              po_packet = None;
            }))
  in
  T_util.checki "newest buffer released" 1
    (List.length (release 6 (List.nth ids ((4 * n) - 1))).Sw.transmits);
  T_util.checki "oldest buffer gone" 0
    (List.length (release 7 (List.hd ids)).Sw.transmits)

let test_flow_mod_applies_to_buffer () =
  let sw = fresh () in
  let fwd = Sw.process_packet sw ~now:0. ~in_port:1 pkt in
  let buffer_id =
    match fwd.Sw.punts with
    | [ pi ] -> Option.get pi.Message.pi_buffer_id
    | _ -> Alcotest.fail "expected punt"
  in
  let fm = Message.flow_add Ofp_match.any [ Action.Output 2 ] in
  let _, fwd2 =
    send sw (Message.Flow_mod { fm with Message.buffer_id = Some buffer_id })
  in
  Alcotest.(check (list int)) "buffered packet forwarded by new rule" [ 2 ]
    (List.map snd fwd2.Sw.transmits)

let test_barrier_echo_features () =
  let sw = fresh () in
  (match send sw Message.Barrier_request with
  | [ { Message.payload = Message.Barrier_reply; xid = 5 } ], _ -> ()
  | _ -> Alcotest.fail "barrier reply with same xid expected");
  (match send sw (Message.Echo_request (Bytes.of_string "x")) with
  | [ { Message.payload = Message.Echo_reply b; _ } ], _ ->
      Alcotest.(check string) "echo payload" "x" (Bytes.to_string b)
  | _ -> Alcotest.fail "echo reply expected");
  match send sw Message.Features_request with
  | [ { Message.payload = Message.Features_reply f; _ } ], _ ->
      T_util.checki "dpid" 1 f.Message.datapath_id;
      T_util.checki "ports" 3 (List.length f.Message.ports)
  | _ -> Alcotest.fail "features reply expected"

let test_flow_stats_filtering () =
  let sw = fresh () in
  ignore
    (send sw
       (Message.Flow_mod
          (Message.flow_add (Ofp_match.make ~tp_dst:80 ()) [ Action.Output 1 ])));
  ignore
    (send ~xid:6 sw
       (Message.Flow_mod
          (Message.flow_add (Ofp_match.make ~tp_dst:443 ()) [ Action.Output 2 ])));
  match
    send sw
      (Message.Stats_request (Message.Flow_stats_request (Ofp_match.make ~tp_dst:80 ())))
  with
  | [ { Message.payload = Message.Stats_reply (Message.Flow_stats_reply stats); _ } ], _
    ->
      T_util.checki "only subsumed flows reported" 1 (List.length stats)
  | _ -> Alcotest.fail "flow stats reply expected"

let test_delete_notifies () =
  let sw = fresh () in
  ignore
    (send sw
       (Message.Flow_mod
          (Message.flow_add ~notify_when_removed:true
             (Ofp_match.make ~tp_dst:80 ())
             [ Action.Output 1 ])));
  match
    send ~xid:6 sw
      (Message.Flow_mod (Message.flow_delete (Ofp_match.make ~tp_dst:80 ())))
  with
  | [ { Message.payload = Message.Flow_removed fr; _ } ], _ ->
      T_util.checkb "delete reason" true (fr.Message.fr_reason = Message.Removed_delete)
  | _ -> Alcotest.fail "flow removed notification expected"

let test_down_switch_errors () =
  let sw = fresh () in
  sw.Sw.up <- false;
  match send sw Message.Barrier_request with
  | [ { Message.payload = Message.Error _; _ } ], _ -> ()
  | _ -> Alcotest.fail "down switch must error"

let test_expiry_notification () =
  let sw = fresh () in
  ignore
    (send sw
       (Message.Flow_mod
          (Message.flow_add ~hard_timeout:5 ~notify_when_removed:true
             Ofp_match.any [ Action.Output 1 ])));
  T_util.checki "no expiry yet" 0 (List.length (Sw.expire_flows sw ~now:4.));
  match Sw.expire_flows sw ~now:5. with
  | [ { Message.payload = Message.Flow_removed fr; _ } ] ->
      T_util.checkb "hard reason" true (fr.Message.fr_reason = Message.Removed_hard)
  | _ -> Alcotest.fail "expiry notification expected"

(* Property: the xid dedup window makes delivery idempotent. Any
   duplication pattern of a message sequence — every duplicate arriving
   some time after its original, as retransmission guarantees — leaves
   the flow table exactly as exactly-once delivery would. *)
let prop_dedup_idempotent =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 8) T_util.Gen.flow_mod)
        (list_size (int_bound 12) (pair (int_bound 100) (int_bound 100))))
  in
  QCheck2.Test.make ~name:"any duplication pattern equals exactly-once"
    ~count:300 gen (fun (fms, dups) ->
      (* Non-zero unique xids: xid 0 opts out of deduplication. *)
      let msgs =
        List.mapi
          (fun i fm -> Message.message ~xid:(i + 1) (Message.Flow_mod fm))
          fms
      in
      let n = List.length msgs in
      (* Build the duplicated delivery sequence: start from the originals
         in order and insert each duplicate at any point after its
         original's first occurrence. *)
      let with_dups =
        List.fold_left
          (fun seq (which, pos) ->
            let m = List.nth msgs (which mod n) in
            let first =
              let rec idx i = function
                | [] -> 0
                | x :: _ when x == m || x = m -> i
                | _ :: rest -> idx (i + 1) rest
              in
              idx 0 seq
            in
            let at = first + 1 + (pos mod (List.length seq - first)) in
            let rec insert i = function
              | rest when i = at -> m :: rest
              | [] -> [ m ]
              | x :: rest -> x :: insert (i + 1) rest
            in
            insert 0 seq)
          msgs dups
      in
      let deliver sw seq =
        List.iter (fun m -> ignore (Sw.handle_message sw ~now:0. m)) seq
      in
      let once = fresh () and dup = fresh () in
      deliver once msgs;
      deliver dup with_dups;
      Flow_table.entries once.Sw.table = Flow_table.entries dup.Sw.table)

let suite =
  [
    Alcotest.test_case "table miss buffers and punts" `Quick test_miss_buffers_and_punts;
    Alcotest.test_case "match forwards and counts" `Quick test_match_forwards_and_counts;
    Alcotest.test_case "flood excludes ingress" `Quick test_flood_excludes_ingress;
    Alcotest.test_case "flood skips down ports" `Quick test_flood_skips_down_ports;
    Alcotest.test_case "down port drops copy" `Quick test_output_to_down_port_drops;
    Alcotest.test_case "controller output punts" `Quick test_output_to_controller_punts;
    Alcotest.test_case "packet_out releases buffer once" `Quick test_packet_out_releases_buffer;
    Alcotest.test_case "packet buffers stay bounded" `Quick test_buffers_stay_bounded;
    Alcotest.test_case "flow_mod applies to buffer" `Quick test_flow_mod_applies_to_buffer;
    Alcotest.test_case "barrier/echo/features" `Quick test_barrier_echo_features;
    Alcotest.test_case "flow stats filter" `Quick test_flow_stats_filtering;
    Alcotest.test_case "delete notifies" `Quick test_delete_notifies;
    Alcotest.test_case "down switch errors" `Quick test_down_switch_errors;
    Alcotest.test_case "timeout expiry notifies" `Quick test_expiry_notification;
    QCheck_alcotest.to_alcotest prop_dedup_idempotent;
  ]
