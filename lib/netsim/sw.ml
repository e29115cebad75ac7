open Openflow

type port_state = {
  port_no : Types.port_no;
  hw_addr : Types.mac;
  mutable port_up : bool;
  mutable no_flood : bool;
  mutable rx_packets : int;
  mutable tx_packets : int;
  mutable rx_bytes : int;
  mutable tx_bytes : int;
  mutable rx_dropped : int;
  mutable tx_dropped : int;
}

type t = {
  id : Types.switch_id;
  table : Flow_table.t;
  mutable up : bool;
  ports : (int, port_state) Hashtbl.t;
  port_nos : Types.port_no list;
  buffers : (int, Packet.t * Types.port_no) Hashtbl.t;
  mutable next_buffer_id : int;
  seen_xids : (Types.xid, unit) Hashtbl.t;
  seen_order : Types.xid Queue.t;
  mutable dups_suppressed : int;
  mutable cfg_gen : int;
  mutable master : int option;
  mutable slave_rejected : int;
}

(* Bound on the per-switch dedup window: enough to cover any plausible
   retransmission window while keeping reboot-survivor memory small. *)
let dedup_window = 4096

(* Packet buffers the switch advertises in its features. *)
let n_buffers = 256

let port_mac sid port_no = Types.mac_of_octets 0x0a 0x00 0x00 sid 0x00 port_no

let create ~id ~port_nos =
  let ports = Hashtbl.create 8 in
  List.iter
    (fun n ->
      Hashtbl.replace ports n
        {
          port_no = n;
          hw_addr = port_mac id n;
          port_up = true;
          no_flood = false;
          rx_packets = 0;
          tx_packets = 0;
          rx_bytes = 0;
          tx_bytes = 0;
          rx_dropped = 0;
          tx_dropped = 0;
        })
    port_nos;
  {
    id;
    table = Flow_table.create ();
    up = true;
    ports;
    port_nos = List.sort_uniq Int.compare port_nos;
    buffers = Hashtbl.create 8;
    next_buffer_id = 1;
    seen_xids = Hashtbl.create 64;
    seen_order = Queue.create ();
    dups_suppressed = 0;
    cfg_gen = 0;
    master = None;
    slave_rejected = 0;
  }

let set_up t ~up =
  if t.up <> up then begin
    t.up <- up;
    t.cfg_gen <- t.cfg_gen + 1
  end

(* Exactly-once support for a lossy control channel: state-altering
   messages carry unique non-zero xids, and a retransmitted xid must not
   re-apply its effects. Returns [true] the first time an xid is seen. *)
let register_xid t xid =
  if xid = 0 then true
  else if Hashtbl.mem t.seen_xids xid then begin
    t.dups_suppressed <- t.dups_suppressed + 1;
    false
  end
  else begin
    Hashtbl.replace t.seen_xids xid ();
    Queue.push xid t.seen_order;
    if Queue.length t.seen_order > dedup_window then
      Hashtbl.remove t.seen_xids (Queue.pop t.seen_order);
    true
  end

let reset_dedup t =
  Hashtbl.reset t.seen_xids;
  Queue.clear t.seen_order

(* OF 1.2-style controller roles, collapsed to the one bit that matters
   here: when a master is designated, state-altering messages from any
   other controller are rejected with an error instead of applied. *)
let set_master t controller = t.master <- controller

let accepts_state_altering t = function
  | None -> true
  | Some from -> ( match t.master with None -> true | Some m -> m = from)

let has_seen_xid t xid = Hashtbl.mem t.seen_xids xid

let port t n = Hashtbl.find_opt t.ports n

let port_list t = List.filter_map (port t) t.port_nos

let set_port t n ~up =
  match port t n with
  | None -> false
  | Some p ->
      if p.port_up <> up then t.cfg_gen <- t.cfg_gen + 1;
      p.port_up <- up;
      true

let port_desc (p : port_state) : Message.port_desc =
  {
    port_no = p.port_no;
    hw_addr = p.hw_addr;
    name = Printf.sprintf "eth%d" p.port_no;
    up = p.port_up;
    no_flood = p.no_flood;
  }

let features t : Message.features =
  {
    datapath_id = t.id;
    n_buffers;
    n_tables = 1;
    ports = List.map port_desc (port_list t);
  }

type forward_result = {
  transmits : (Packet.t * Types.port_no) list;
  punts : Message.packet_in list;
  matched : bool;
}

let empty_forward = { transmits = []; punts = []; matched = false }

let merge_forward a b =
  {
    transmits = a.transmits @ b.transmits;
    punts = a.punts @ b.punts;
    matched = a.matched || b.matched;
  }

let buffer_packet t pkt in_port =
  let id = t.next_buffer_id in
  t.next_buffer_id <- t.next_buffer_id + 1;
  Hashtbl.replace t.buffers id (pkt, in_port);
  (* Ids are consecutive, so this keeps the newest [n_buffers]: a packet
     the controller never releases (it answered with an inline copy, or
     not at all) gives up its slot instead of staying forever. *)
  Hashtbl.remove t.buffers (id - n_buffers);
  id

let egress ~ports ~up ~no_flood ~in_port out =
  if out = Types.port_flood then
    List.filter (fun p -> p <> in_port && up p && not (no_flood p)) ports
  else if out = Types.port_all then
    List.filter (fun p -> p <> in_port && up p) ports
  else if out = Types.port_in_port then [ in_port ]
  else if
    out = Types.port_controller || out = Types.port_local
    || out = Types.port_none
  then []
  else if up out then [ out ]
  else []

let port_up t n = match port t n with Some p -> p.port_up | None -> false
let no_flood t n = match port t n with Some p -> p.no_flood | None -> false

(* Expand one staged (packet, port) pair into its egress copies; an output
   to the controller becomes a packet-in, and a down port counts the drop. *)
let resolve_output t ~in_port (pkt, out) =
  if out = Types.port_controller then
    ( [
        {
          Message.pi_buffer_id = None;
          pi_in_port = in_port;
          pi_reason = Message.Action_to_controller;
          pi_packet = pkt;
        };
      ],
      [] )
  else begin
    (match port t out with
    | Some p when not p.port_up -> p.tx_dropped <- p.tx_dropped + 1
    | Some _ | None -> ());
    let ports =
      egress ~ports:t.port_nos ~up:(port_up t) ~no_flood:(no_flood t) ~in_port
        out
    in
    ([], List.map (fun p -> (pkt, p)) ports)
  end

let run_actions t ~in_port actions pkt =
  let staged = Action.apply_staged actions pkt in
  List.fold_left
    (fun acc copy ->
      let punts, transmits = resolve_output t ~in_port copy in
      merge_forward acc { transmits; punts; matched = true })
    empty_forward staged

let process_packet t ~now ~in_port pkt =
  let rx =
    match port t in_port with
    | Some p when p.port_up ->
        p.rx_packets <- p.rx_packets + 1;
        p.rx_bytes <- p.rx_bytes + Packet.size pkt;
        true
    | Some p ->
        p.rx_dropped <- p.rx_dropped + 1;
        false
    | None -> false
  in
  if not (rx && t.up) then empty_forward
  else
    match Flow_table.lookup t.table ~now ~in_port pkt with
    | Some entry ->
        Flow_entry.account entry ~now pkt;
        run_actions t ~in_port entry.actions pkt
    | None ->
        let buffer_id = buffer_packet t pkt in_port in
        {
          empty_forward with
          punts =
            [
              {
                pi_buffer_id = Some buffer_id;
                pi_in_port = in_port;
                pi_reason = Message.No_match;
                pi_packet = pkt;
              };
            ];
        }

let account_tx t out pkt =
  match port t out with
  | Some p ->
      p.tx_packets <- p.tx_packets + 1;
      p.tx_bytes <- p.tx_bytes + Packet.size pkt
  | None -> ()

let flow_removed_messages ~now reason entries =
  entries
  |> List.filter (fun (e : Flow_entry.t) -> e.notify_when_removed)
  |> List.map (fun e ->
         Message.message (Message.Flow_removed (Flow_entry.to_flow_removed ~now reason e)))

let take_buffer t = function
  | None -> None
  | Some id ->
      let found = Hashtbl.find_opt t.buffers id in
      if found <> None then Hashtbl.remove t.buffers id;
      found

let handle_message ?from t ~now (msg : Message.t) =
  let reply payload = Message.message ~xid:msg.xid payload in
  if not t.up then
    ([ reply (Message.Error (Message.Bad_request, "switch is down")) ],
     empty_forward)
  else if
    Message.is_state_altering msg.payload
    && not (accepts_state_altering t from)
  then begin
    t.slave_rejected <- t.slave_rejected + 1;
    ([ reply (Message.Error (Message.Bad_request, "controller is slave")) ],
     empty_forward)
  end
  else if Message.is_state_altering msg.payload && not (register_xid t msg.xid)
  then
    (* Retransmit of an already-applied message: idempotent, no effects.
       A barrier request that follows is still answered normally. *)
    ([], empty_forward)
  else
    match msg.payload with
    | Hello -> ([ reply Message.Hello ], empty_forward)
    | Echo_request b -> ([ reply (Message.Echo_reply b) ], empty_forward)
    | Features_request ->
        ([ reply (Message.Features_reply (features t)) ], empty_forward)
    | Barrier_request -> ([ reply Message.Barrier_reply ], empty_forward)
    | Port_mod pm -> (
        match port t pm.Message.pm_port_no with
        | Some p ->
            if p.no_flood <> pm.Message.pm_no_flood then
              t.cfg_gen <- t.cfg_gen + 1;
            p.no_flood <- pm.Message.pm_no_flood;
            ([], empty_forward)
        | None ->
            ( [ reply (Message.Error (Message.Port_mod_failed, "no such port")) ],
              empty_forward ))
    | Flow_mod fm ->
        let removed =
          flow_removed_messages ~now Message.Removed_delete
            (Flow_table.apply t.table ~now fm)
        in
        (* A flow-mod referencing a buffered packet applies its actions to
           that packet immediately (OF 1.0 §4.6). *)
        let fwd =
          match take_buffer t fm.buffer_id with
          | Some (pkt, in_port) when fm.command = Add ->
              run_actions t ~in_port fm.actions pkt
          | Some _ | None -> empty_forward
        in
        (removed, fwd)
    | Packet_out po -> (
        let from_buffer = take_buffer t po.po_buffer_id in
        let packet =
          match (from_buffer, po.po_packet) with
          | Some (pkt, _), _ -> Some pkt
          | None, inline -> inline
        in
        match packet with
        | None ->
            ( [ reply (Message.Error (Message.Bad_request, "packet_out without payload")) ],
              empty_forward )
        | Some pkt ->
            let in_port =
              match po.po_in_port with
              | Some p -> p
              | None -> Types.port_none
            in
            ([], run_actions t ~in_port po.po_actions pkt))
    | Stats_request req ->
        let sr =
          match req with
          | Flow_stats_request pattern ->
              let stats =
                Flow_table.entries t.table
                |> List.filter (fun (e : Flow_entry.t) ->
                       Ofp_match.subsumes pattern e.pattern)
                |> List.map (Flow_entry.to_flow_stat ~now)
              in
              Message.Flow_stats_reply stats
          | Aggregate_stats_request pattern ->
              let matching =
                Flow_table.entries t.table
                |> List.filter (fun (e : Flow_entry.t) ->
                       Ofp_match.subsumes pattern e.pattern)
              in
              Message.Aggregate_stats_reply
                {
                  packets =
                    List.fold_left
                      (fun acc (e : Flow_entry.t) -> acc + e.packet_count)
                      0 matching;
                  bytes =
                    List.fold_left
                      (fun acc (e : Flow_entry.t) -> acc + e.byte_count)
                      0 matching;
                  flows = List.length matching;
                }
          | Port_stats_request filter ->
              let selected =
                match filter with
                | None -> port_list t
                | Some n -> Option.to_list (port t n)
              in
              Message.Port_stats_reply
                (List.map
                   (fun (p : port_state) ->
                     {
                       Message.ps_port_no = p.port_no;
                       ps_rx_packets = p.rx_packets;
                       ps_tx_packets = p.tx_packets;
                       ps_rx_bytes = p.rx_bytes;
                       ps_tx_bytes = p.tx_bytes;
                       ps_rx_dropped = p.rx_dropped;
                       ps_tx_dropped = p.tx_dropped;
                     })
                   selected)
          | Description_request ->
              Message.Description_reply
                (Printf.sprintf "legosdn-netsim switch s%d" t.id)
        in
        ([ reply (Message.Stats_reply sr) ], empty_forward)
    | Echo_reply _ | Features_reply _ | Packet_in _ | Flow_removed _
    | Port_status _ | Stats_reply _ | Barrier_reply | Error _ ->
        ( [ reply (Message.Error (Message.Bad_request, "not a controller-to-switch message")) ],
          empty_forward )

let expire_flows t ~now =
  Flow_table.expire t.table ~now
  |> List.filter_map (fun ((e : Flow_entry.t), reason) ->
         if e.notify_when_removed then
           Some
             (Message.message
                (Message.Flow_removed (Flow_entry.to_flow_removed ~now reason e)))
         else None)

let pp fmt t =
  Format.fprintf fmt "@[<v>switch s%d up=%b ports=%d@,%a@]" t.id t.up
    (Hashtbl.length t.ports) Flow_table.pp t.table
