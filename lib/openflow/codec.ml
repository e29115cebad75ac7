exception Decode_error of string

let fail fmt = Format.ksprintf (fun s -> raise (Decode_error s)) fmt

let version = 0x01

(* OFPT_* message type numbers from the OF 1.0 spec. *)
let t_hello = 0
let t_error = 1
let t_echo_request = 2
let t_echo_reply = 3
let t_features_request = 5
let t_features_reply = 6
let t_packet_in = 10
let t_flow_removed = 11
let t_port_status = 12
let t_packet_out = 13
let t_flow_mod = 14
let t_port_mod = 15
let t_stats_request = 16
let t_stats_reply = 17
let t_barrier_request = 18
let t_barrier_reply = 19

let none_sentinel = 0xffffffff

let put_opt_u32 w = function
  | None -> Buf.u32 w none_sentinel
  | Some v -> Buf.u32 w v

let get_opt_u32 r =
  let v = Buf.read_u32 r in
  if v = none_sentinel then None else Some v

let put_opt_u16 w sentinel = function
  | None -> Buf.u16 w sentinel
  | Some v -> Buf.u16 w v

let get_opt_u16 r sentinel =
  let v = Buf.read_u16 r in
  if v = sentinel then None else Some v

let put_string w s =
  Buf.u16 w (String.length s);
  Buf.raw w (Bytes.of_string s)

let get_string r =
  let n = Buf.read_u16 r in
  Bytes.to_string (Buf.read_raw r n)

let put_bytes w b =
  Buf.u16 w (Bytes.length b);
  Buf.raw w b

let get_bytes r =
  let n = Buf.read_u16 r in
  Buf.read_raw r n

let put_packet w p = put_bytes w (Packet.to_frame p)
let get_packet r = Packet.of_frame (get_bytes r)

let put_port_desc w (d : Message.port_desc) =
  Buf.u16 w d.port_no;
  Buf.u48 w d.hw_addr;
  put_string w d.name;
  Buf.u8 w ((if d.up then 1 else 0) lor if d.no_flood then 2 else 0)

let get_port_desc r : Message.port_desc =
  let port_no = Buf.read_u16 r in
  let hw_addr = Buf.read_u48 r in
  let name = get_string r in
  let flags = Buf.read_u8 r in
  { port_no; hw_addr; name; up = flags land 1 = 1; no_flood = flags land 2 = 2 }

let command_code : Message.flow_mod_command -> int = function
  | Add -> 0
  | Modify -> 1
  | Modify_strict -> 2
  | Delete -> 3
  | Delete_strict -> 4

let command_of_code = function
  | 0 -> Message.Add
  | 1 -> Message.Modify
  | 2 -> Message.Modify_strict
  | 3 -> Message.Delete
  | 4 -> Message.Delete_strict
  | n -> fail "unknown flow_mod command %d" n

let put_flow_mod w (fm : Message.flow_mod) =
  Ofp_match.encode w fm.pattern;
  Buf.u64 w fm.cookie;
  Buf.u16 w (command_code fm.command);
  Buf.u16 w fm.idle_timeout;
  Buf.u16 w fm.hard_timeout;
  Buf.u16 w fm.priority;
  put_opt_u32 w fm.buffer_id;
  put_opt_u16 w Types.port_none fm.out_port;
  Buf.u8 w (if fm.notify_when_removed then 1 else 0);
  Action.encode_list w fm.actions

let get_flow_mod r : Message.flow_mod =
  let pattern = Ofp_match.decode r in
  let cookie = Buf.read_u64 r in
  let command = command_of_code (Buf.read_u16 r) in
  let idle_timeout = Buf.read_u16 r in
  let hard_timeout = Buf.read_u16 r in
  let priority = Buf.read_u16 r in
  let buffer_id = get_opt_u32 r in
  let out_port = get_opt_u16 r Types.port_none in
  let notify_when_removed = Buf.read_u8 r = 1 in
  let actions = Action.decode_list r in
  {
    pattern;
    cookie;
    command;
    idle_timeout;
    hard_timeout;
    priority;
    buffer_id;
    out_port;
    notify_when_removed;
    actions;
  }

let flow_removed_reason_code : Message.flow_removed_reason -> int = function
  | Removed_idle -> 0
  | Removed_hard -> 1
  | Removed_delete -> 2

let flow_removed_reason_of_code = function
  | 0 -> Message.Removed_idle
  | 1 -> Message.Removed_hard
  | 2 -> Message.Removed_delete
  | n -> fail "unknown flow_removed reason %d" n

let stats_kind_flow = 1
let stats_kind_aggregate = 2
let stats_kind_port = 4
let stats_kind_desc = 0

let put_stats_request w : Message.stats_request -> unit = function
  | Flow_stats_request m ->
      Buf.u16 w stats_kind_flow;
      Ofp_match.encode w m
  | Aggregate_stats_request m ->
      Buf.u16 w stats_kind_aggregate;
      Ofp_match.encode w m
  | Port_stats_request p ->
      Buf.u16 w stats_kind_port;
      put_opt_u16 w Types.port_none p
  | Description_request -> Buf.u16 w stats_kind_desc

let get_stats_request r : Message.stats_request =
  match Buf.read_u16 r with
  | k when k = stats_kind_flow -> Flow_stats_request (Ofp_match.decode r)
  | k when k = stats_kind_aggregate ->
      Aggregate_stats_request (Ofp_match.decode r)
  | k when k = stats_kind_port ->
      Port_stats_request (get_opt_u16 r Types.port_none)
  | k when k = stats_kind_desc -> Description_request
  | k -> fail "unknown stats request kind %d" k

let put_flow_stat w (fs : Message.flow_stat) =
  Ofp_match.encode w fs.fs_pattern;
  Buf.u16 w fs.fs_priority;
  Buf.u64 w fs.fs_cookie;
  Buf.u32 w fs.fs_duration;
  Buf.u16 w fs.fs_idle_timeout;
  Buf.u16 w fs.fs_hard_timeout;
  Buf.u64 w (Int64.of_int fs.fs_packet_count);
  Buf.u64 w (Int64.of_int fs.fs_byte_count);
  Action.encode_list w fs.fs_actions

let get_flow_stat r : Message.flow_stat =
  let fs_pattern = Ofp_match.decode r in
  let fs_priority = Buf.read_u16 r in
  let fs_cookie = Buf.read_u64 r in
  let fs_duration = Buf.read_u32 r in
  let fs_idle_timeout = Buf.read_u16 r in
  let fs_hard_timeout = Buf.read_u16 r in
  let fs_packet_count = Int64.to_int (Buf.read_u64 r) in
  let fs_byte_count = Int64.to_int (Buf.read_u64 r) in
  let fs_actions = Action.decode_list r in
  {
    fs_pattern;
    fs_priority;
    fs_cookie;
    fs_duration;
    fs_idle_timeout;
    fs_hard_timeout;
    fs_packet_count;
    fs_byte_count;
    fs_actions;
  }

let put_port_stat w (ps : Message.port_stat) =
  Buf.u16 w ps.ps_port_no;
  Buf.u64 w (Int64.of_int ps.ps_rx_packets);
  Buf.u64 w (Int64.of_int ps.ps_tx_packets);
  Buf.u64 w (Int64.of_int ps.ps_rx_bytes);
  Buf.u64 w (Int64.of_int ps.ps_tx_bytes);
  Buf.u64 w (Int64.of_int ps.ps_rx_dropped);
  Buf.u64 w (Int64.of_int ps.ps_tx_dropped)

let get_port_stat r : Message.port_stat =
  let ps_port_no = Buf.read_u16 r in
  let ps_rx_packets = Int64.to_int (Buf.read_u64 r) in
  let ps_tx_packets = Int64.to_int (Buf.read_u64 r) in
  let ps_rx_bytes = Int64.to_int (Buf.read_u64 r) in
  let ps_tx_bytes = Int64.to_int (Buf.read_u64 r) in
  let ps_rx_dropped = Int64.to_int (Buf.read_u64 r) in
  let ps_tx_dropped = Int64.to_int (Buf.read_u64 r) in
  {
    ps_port_no;
    ps_rx_packets;
    ps_tx_packets;
    ps_rx_bytes;
    ps_tx_bytes;
    ps_rx_dropped;
    ps_tx_dropped;
  }

let put_stats_reply w : Message.stats_reply -> unit = function
  | Flow_stats_reply stats ->
      Buf.u16 w stats_kind_flow;
      Buf.u16 w (List.length stats);
      List.iter (put_flow_stat w) stats
  | Aggregate_stats_reply { packets; bytes; flows } ->
      Buf.u16 w stats_kind_aggregate;
      Buf.u64 w (Int64.of_int packets);
      Buf.u64 w (Int64.of_int bytes);
      Buf.u32 w flows
  | Port_stats_reply stats ->
      Buf.u16 w stats_kind_port;
      Buf.u16 w (List.length stats);
      List.iter (put_port_stat w) stats
  | Description_reply s ->
      Buf.u16 w stats_kind_desc;
      put_string w s

let get_stats_reply r : Message.stats_reply =
  match Buf.read_u16 r with
  | k when k = stats_kind_flow ->
      let n = Buf.read_u16 r in
      Flow_stats_reply (List.init n (fun _ -> get_flow_stat r))
  | k when k = stats_kind_aggregate ->
      let packets = Int64.to_int (Buf.read_u64 r) in
      let bytes = Int64.to_int (Buf.read_u64 r) in
      let flows = Buf.read_u32 r in
      Aggregate_stats_reply { packets; bytes; flows }
  | k when k = stats_kind_port ->
      let n = Buf.read_u16 r in
      Port_stats_reply (List.init n (fun _ -> get_port_stat r))
  | k when k = stats_kind_desc -> Description_reply (get_string r)
  | k -> fail "unknown stats reply kind %d" k

let error_kind_code : Message.error_kind -> int = function
  | Bad_request -> 1
  | Bad_action -> 2
  | Flow_mod_failed -> 3
  | Port_mod_failed -> 4

let error_kind_of_code = function
  | 1 -> Message.Bad_request
  | 2 -> Message.Bad_action
  | 3 -> Message.Flow_mod_failed
  | 4 -> Message.Port_mod_failed
  | n -> fail "unknown error kind %d" n

let type_of_payload : Message.payload -> int = function
  | Hello -> t_hello
  | Error _ -> t_error
  | Echo_request _ -> t_echo_request
  | Echo_reply _ -> t_echo_reply
  | Features_request -> t_features_request
  | Features_reply _ -> t_features_reply
  | Packet_in _ -> t_packet_in
  | Flow_removed _ -> t_flow_removed
  | Port_status _ -> t_port_status
  | Packet_out _ -> t_packet_out
  | Flow_mod _ -> t_flow_mod
  | Port_mod _ -> t_port_mod
  | Stats_request _ -> t_stats_request
  | Stats_reply _ -> t_stats_reply
  | Barrier_request -> t_barrier_request
  | Barrier_reply -> t_barrier_reply

let put_body w : Message.payload -> unit = function
  | Hello | Features_request | Barrier_request | Barrier_reply -> ()
  | Echo_request b | Echo_reply b -> put_bytes w b
  | Error (kind, msg) ->
      Buf.u16 w (error_kind_code kind);
      put_string w msg
  | Features_reply f ->
      Buf.u64 w (Int64.of_int f.datapath_id);
      Buf.u32 w f.n_buffers;
      Buf.u8 w f.n_tables;
      Buf.u16 w (List.length f.ports);
      List.iter (put_port_desc w) f.ports
  | Packet_in pi ->
      put_opt_u32 w pi.pi_buffer_id;
      Buf.u16 w pi.pi_in_port;
      Buf.u8 w (match pi.pi_reason with No_match -> 0 | Action_to_controller -> 1);
      put_packet w pi.pi_packet
  | Packet_out po ->
      put_opt_u32 w po.po_buffer_id;
      put_opt_u16 w Types.port_none po.po_in_port;
      Action.encode_list w po.po_actions;
      (match po.po_packet with
      | None -> Buf.u8 w 0
      | Some p ->
          Buf.u8 w 1;
          put_packet w p)
  | Flow_mod fm -> put_flow_mod w fm
  | Port_mod pm ->
      Buf.u16 w pm.pm_port_no;
      Buf.u8 w (if pm.pm_no_flood then 1 else 0)
  | Flow_removed fr ->
      Ofp_match.encode w fr.fr_pattern;
      Buf.u64 w fr.fr_cookie;
      Buf.u16 w fr.fr_priority;
      Buf.u8 w (flow_removed_reason_code fr.fr_reason);
      Buf.u32 w fr.fr_duration;
      Buf.u16 w fr.fr_idle_timeout;
      Buf.u64 w (Int64.of_int fr.fr_packet_count);
      Buf.u64 w (Int64.of_int fr.fr_byte_count)
  | Port_status (reason, desc) ->
      Buf.u8 w
        (match reason with Port_add -> 0 | Port_delete -> 1 | Port_modify -> 2);
      put_port_desc w desc
  | Stats_request sr -> put_stats_request w sr
  | Stats_reply sr -> put_stats_reply w sr

let get_body typ r : Message.payload =
  if typ = t_hello then Hello
  else if typ = t_echo_request then Echo_request (get_bytes r)
  else if typ = t_echo_reply then Echo_reply (get_bytes r)
  else if typ = t_features_request then Features_request
  else if typ = t_features_reply then begin
    let datapath_id = Int64.to_int (Buf.read_u64 r) in
    let n_buffers = Buf.read_u32 r in
    let n_tables = Buf.read_u8 r in
    let n = Buf.read_u16 r in
    let ports = List.init n (fun _ -> get_port_desc r) in
    Features_reply { datapath_id; n_buffers; n_tables; ports }
  end
  else if typ = t_packet_in then begin
    let pi_buffer_id = get_opt_u32 r in
    let pi_in_port = Buf.read_u16 r in
    let pi_reason =
      match Buf.read_u8 r with
      | 0 -> Message.No_match
      | 1 -> Message.Action_to_controller
      | n -> fail "unknown packet_in reason %d" n
    in
    let pi_packet = get_packet r in
    Packet_in { pi_buffer_id; pi_in_port; pi_reason; pi_packet }
  end
  else if typ = t_packet_out then begin
    let po_buffer_id = get_opt_u32 r in
    let po_in_port = get_opt_u16 r Types.port_none in
    let po_actions = Action.decode_list r in
    let po_packet =
      match Buf.read_u8 r with
      | 0 -> None
      | 1 -> Some (get_packet r)
      | n -> fail "bad packet_out payload flag %d" n
    in
    Packet_out { po_buffer_id; po_in_port; po_actions; po_packet }
  end
  else if typ = t_flow_mod then Flow_mod (get_flow_mod r)
  else if typ = t_port_mod then begin
    let pm_port_no = Buf.read_u16 r in
    let pm_no_flood = Buf.read_u8 r = 1 in
    Port_mod { pm_port_no; pm_no_flood }
  end
  else if typ = t_flow_removed then begin
    let fr_pattern = Ofp_match.decode r in
    let fr_cookie = Buf.read_u64 r in
    let fr_priority = Buf.read_u16 r in
    let fr_reason = flow_removed_reason_of_code (Buf.read_u8 r) in
    let fr_duration = Buf.read_u32 r in
    let fr_idle_timeout = Buf.read_u16 r in
    let fr_packet_count = Int64.to_int (Buf.read_u64 r) in
    let fr_byte_count = Int64.to_int (Buf.read_u64 r) in
    Flow_removed
      {
        fr_pattern;
        fr_cookie;
        fr_priority;
        fr_reason;
        fr_duration;
        fr_idle_timeout;
        fr_packet_count;
        fr_byte_count;
      }
  end
  else if typ = t_port_status then begin
    let reason =
      match Buf.read_u8 r with
      | 0 -> Message.Port_add
      | 1 -> Message.Port_delete
      | 2 -> Message.Port_modify
      | n -> fail "unknown port_status reason %d" n
    in
    let desc = get_port_desc r in
    Port_status (reason, desc)
  end
  else if typ = t_stats_request then Stats_request (get_stats_request r)
  else if typ = t_stats_reply then Stats_reply (get_stats_reply r)
  else if typ = t_barrier_request then Barrier_request
  else if typ = t_barrier_reply then Barrier_reply
  else if typ = t_error then begin
    let kind = error_kind_of_code (Buf.read_u16 r) in
    let msg = get_string r in
    Error (kind, msg)
  end
  else fail "unknown message type %d" typ

(* Append one frame at the writer's current position. The header length
   field is relative to the frame start, so frames embedded mid-buffer
   carry the same bytes a standalone [encode] would produce. *)
let encode_into w (m : Message.t) =
  let base = Buf.length w in
  Buf.u8 w version;
  Buf.u8 w (type_of_payload m.payload);
  Buf.u16 w 0 (* length, patched below *);
  Buf.u32 w m.xid;
  put_body w m.payload;
  Buf.patch_u16 w ~pos:(base + 2) (Buf.length w - base)

let encode (m : Message.t) =
  let w = Buf.writer ~capacity:128 () in
  encode_into w m;
  Buf.contents w

let decode_at r : Message.t =
  try
    let v = Buf.read_u8 r in
    if v <> version then fail "bad OpenFlow version %d" v;
    let typ = Buf.read_u8 r in
    let _len = Buf.read_u16 r in
    let xid = Buf.read_u32 r in
    let payload = get_body typ r in
    { xid; payload }
  with Buf.Underflow -> fail "truncated message"

let decode b = decode_at (Buf.reader b)
