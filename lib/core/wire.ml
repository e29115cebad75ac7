open Openflow
module Event = Controller.Event
module Command = Controller.Command

exception Decode_error of string

let fail fmt = Format.ksprintf (fun s -> raise (Decode_error s)) fmt

(* An embedded message is a u16 length, then its OpenFlow frame. The
   frame is encoded in place and the length back-patched, so no
   intermediate buffer is allocated. *)
let put_message w msg =
  let lenpos = Buf.length w in
  Buf.u16 w 0;
  Codec.encode_into w msg;
  Buf.patch_u16 w ~pos:lenpos (Buf.length w - lenpos - 2)

(* The frame is decoded through a window onto the reader's bytes, not a
   copy. A torn frame leaves a short window: [sub_reader] raises
   [Buf.Underflow]. *)
let get_message r =
  let n = Buf.read_u16 r in
  let sub = Buf.sub_reader r n in
  try Codec.decode_at sub
  with Codec.Decode_error e -> fail "embedded message: %s" e

let put_link w (l : Event.link) =
  Buf.u32 w l.src_switch;
  Buf.u16 w l.src_port;
  Buf.u32 w l.dst_switch;
  Buf.u16 w l.dst_port

let get_link r : Event.link =
  let src_switch = Buf.read_u32 r in
  let src_port = Buf.read_u16 r in
  let dst_switch = Buf.read_u32 r in
  let dst_port = Buf.read_u16 r in
  { src_switch; src_port; dst_switch; dst_port }

let put_event w (ev : Event.t) =
  match ev with
  | Event.Switch_up (sid, features) ->
      Buf.u8 w 0;
      Buf.u32 w sid;
      put_message w (Message.message (Message.Features_reply features))
  | Event.Switch_down sid ->
      Buf.u8 w 1;
      Buf.u32 w sid
  | Event.Port_status (sid, reason, desc) ->
      Buf.u8 w 2;
      Buf.u32 w sid;
      put_message w (Message.message (Message.Port_status (reason, desc)))
  | Event.Link_up l ->
      Buf.u8 w 3;
      put_link w l
  | Event.Link_down l ->
      Buf.u8 w 4;
      put_link w l
  | Event.Packet_in (sid, pi) ->
      Buf.u8 w 5;
      Buf.u32 w sid;
      put_message w (Message.message (Message.Packet_in pi))
  | Event.Flow_removed (sid, fr) ->
      Buf.u8 w 6;
      Buf.u32 w sid;
      put_message w (Message.message (Message.Flow_removed fr))
  | Event.Stats_reply (sid, xid, sr) ->
      Buf.u8 w 7;
      Buf.u32 w sid;
      put_message w (Message.message ~xid (Message.Stats_reply sr))
  | Event.Tick now ->
      Buf.u8 w 8;
      Buf.u64 w (Int64.bits_of_float now)

let get_event r =
  try
    match Buf.read_u8 r with
    | 0 -> (
        let sid = Buf.read_u32 r in
        match (get_message r).Message.payload with
        | Message.Features_reply f -> Event.Switch_up (sid, f)
        | _ -> fail "switch_up: embedded message is not features_reply")
    | 1 -> Event.Switch_down (Buf.read_u32 r)
    | 2 -> (
        let sid = Buf.read_u32 r in
        match (get_message r).Message.payload with
        | Message.Port_status (reason, desc) ->
            Event.Port_status (sid, reason, desc)
        | _ -> fail "port_status: bad embedded message")
    | 3 -> Event.Link_up (get_link r)
    | 4 -> Event.Link_down (get_link r)
    | 5 -> (
        let sid = Buf.read_u32 r in
        match (get_message r).Message.payload with
        | Message.Packet_in pi -> Event.Packet_in (sid, pi)
        | _ -> fail "packet_in: bad embedded message")
    | 6 -> (
        let sid = Buf.read_u32 r in
        match (get_message r).Message.payload with
        | Message.Flow_removed fr -> Event.Flow_removed (sid, fr)
        | _ -> fail "flow_removed: bad embedded message")
    | 7 -> (
        let sid = Buf.read_u32 r in
        let msg = get_message r in
        match msg.Message.payload with
        | Message.Stats_reply sr -> Event.Stats_reply (sid, msg.Message.xid, sr)
        | _ -> fail "stats_reply: bad embedded message")
    | 8 -> Event.Tick (Int64.float_of_bits (Buf.read_u64 r))
    | n -> fail "unknown event tag %d" n
  with Buf.Underflow -> fail "truncated event"

let put_command w (cmd : Command.t) =
  match cmd with
  | Command.Flow (sid, fm) ->
      Buf.u8 w 0;
      Buf.u32 w sid;
      put_message w (Message.message (Message.Flow_mod fm))
  | Command.Packet (sid, po) ->
      Buf.u8 w 1;
      Buf.u32 w sid;
      put_message w (Message.message (Message.Packet_out po))
  | Command.Stats (sid, sr) ->
      Buf.u8 w 2;
      Buf.u32 w sid;
      put_message w (Message.message (Message.Stats_request sr))
  | Command.Log s ->
      Buf.u8 w 3;
      Buf.u16 w (String.length s);
      Buf.raw w (Bytes.of_string s)
  | Command.Port (sid, pm) ->
      Buf.u8 w 4;
      Buf.u32 w sid;
      put_message w (Message.message (Message.Port_mod pm))

let get_command r : Command.t =
  match Buf.read_u8 r with
  | 0 -> (
      let sid = Buf.read_u32 r in
      match (get_message r).Message.payload with
      | Message.Flow_mod fm -> Command.Flow (sid, fm)
      | _ -> fail "flow command: bad embedded message")
  | 1 -> (
      let sid = Buf.read_u32 r in
      match (get_message r).Message.payload with
      | Message.Packet_out po -> Command.Packet (sid, po)
      | _ -> fail "packet command: bad embedded message")
  | 2 -> (
      let sid = Buf.read_u32 r in
      match (get_message r).Message.payload with
      | Message.Stats_request sr -> Command.Stats (sid, sr)
      | _ -> fail "stats command: bad embedded message")
  | 3 ->
      let n = Buf.read_u16 r in
      Command.Log (Bytes.to_string (Buf.read_raw r n))
  | 4 -> (
      let sid = Buf.read_u32 r in
      match (get_message r).Message.payload with
      | Message.Port_mod pm -> Command.Port (sid, pm)
      | _ -> fail "port command: bad embedded message")
  | n -> fail "unknown command tag %d" n

let put_commands w cmds =
  Buf.u16 w (List.length cmds);
  List.iter (put_command w) cmds

let get_commands r =
  try
    let n = Buf.read_u16 r in
    List.init n (fun _ -> get_command r)
  with Buf.Underflow -> fail "truncated command list"

(* The fresh-allocation entry points: the same encoders on a new writer,
   the same decoders on a new reader. *)
let encode ~capacity put x =
  let w = Buf.writer ~capacity () in
  put w x;
  Buf.contents w

let encode_event ev = encode ~capacity:64 put_event ev
let decode_event b = get_event (Buf.reader b)
let encode_command cmd = encode ~capacity:64 put_command cmd

let decode_command b =
  try get_command (Buf.reader b)
  with Buf.Underflow -> fail "truncated command"

let encode_commands cmds = encode ~capacity:128 put_commands cmds
let decode_commands b = get_commands (Buf.reader b)

let event_size ev = Bytes.length (encode_event ev)

let roundtrip_event ev = decode_event (encode_event ev)
let roundtrip_commands cmds = decode_commands (encode_commands cmds)

(* The allocation-free hot path: one writer per RPC channel, rewound (not
   reallocated) per message, decoded in place. After warm-up the only
   allocations left in a ship are the decoded values themselves. *)
type scratch = Buf.writer

let scratch ?(capacity = 512) () = Buf.writer ~capacity ()

let roundtrip_scratch put get s x =
  Buf.reset s;
  put s x;
  (get (Buf.reader_of_writer s), Buf.length s)

let roundtrip_event_scratch s ev = roundtrip_scratch put_event get_event s ev

let roundtrip_commands_scratch s cmds =
  roundtrip_scratch put_commands get_commands s cmds

(* Test hook: the bytes most recently encoded into the scratch, as a
   copy. *)
let scratch_contents = Buf.contents
