type t = {
  dl_src : Types.mac;
  dl_dst : Types.mac;
  dl_vlan : int option;
  dl_type : int;
  nw_src : Types.ip;
  nw_dst : Types.ip;
  nw_proto : int;
  nw_tos : int;
  tp_src : int;
  tp_dst : int;
  payload_len : int;
}

let ethertype_ip = 0x0800
let ethertype_arp = 0x0806
let proto_tcp = 6
let proto_udp = 17

let make ?(dl_vlan = None) ?(dl_type = ethertype_ip) ?(nw_proto = proto_tcp)
    ?(nw_tos = 0) ?(tp_src = 1024) ?(tp_dst = 80) ?(payload_len = 64) ~dl_src
    ~dl_dst ~nw_src ~nw_dst () =
  {
    dl_src;
    dl_dst;
    dl_vlan;
    dl_type;
    nw_src;
    nw_dst;
    nw_proto;
    nw_tos;
    tp_src;
    tp_dst;
    payload_len;
  }

let tcp ~src_host ~dst_host ?(sport = 1024) ?(dport = 80) () =
  make ~dl_src:(Types.mac_of_host src_host) ~dl_dst:(Types.mac_of_host dst_host)
    ~nw_src:(Types.ip_of_host src_host) ~nw_dst:(Types.ip_of_host dst_host)
    ~tp_src:sport ~tp_dst:dport ()

let arp_request ~src_host ~dst_host =
  make ~dl_type:ethertype_arp ~nw_proto:1 (* ARP request opcode *)
    ~dl_src:(Types.mac_of_host src_host) ~dl_dst:Types.mac_broadcast
    ~nw_src:(Types.ip_of_host src_host) ~nw_dst:(Types.ip_of_host dst_host)
    ~tp_src:0 ~tp_dst:0 ~payload_len:28 ()

(* 14 Ethernet + optional 4 VLAN + 20 IP + 4 transport ports. *)
let header_size p = 14 + (match p.dl_vlan with Some _ -> 4 | None -> 0) + 24

let size p = header_size p + p.payload_len

let equal a b = a = b

let pp fmt p =
  Format.fprintf fmt "%a>%a %s %a:%d>%a:%d/%d len=%d" Types.pp_mac p.dl_src
    Types.pp_mac p.dl_dst
    (if p.dl_type = ethertype_arp then "arp" else "ip")
    Types.pp_ip p.nw_src p.tp_src Types.pp_ip p.nw_dst p.tp_dst p.nw_proto
    (size p)

let to_frame p =
  let w = Buf.writer ~capacity:48 () in
  Buf.u48 w p.dl_dst;
  Buf.u48 w p.dl_src;
  (match p.dl_vlan with
  | Some vid ->
      Buf.u16 w 0x8100;
      Buf.u16 w (vid land 0x0fff)
  | None -> ());
  Buf.u16 w p.dl_type;
  Buf.u8 w p.nw_tos;
  Buf.u8 w p.nw_proto;
  Buf.u32 w p.nw_src;
  Buf.u32 w p.nw_dst;
  Buf.u16 w p.tp_src;
  Buf.u16 w p.tp_dst;
  Buf.u32 w p.payload_len;
  Buf.contents w

let of_frame b =
  try
    let r = Buf.reader b in
    let dl_dst = Buf.read_u48 r in
    let dl_src = Buf.read_u48 r in
    let tag = Buf.read_u16 r in
    let dl_vlan, dl_type =
      if tag = 0x8100 then
        let vid = Buf.read_u16 r in
        (Some vid, Buf.read_u16 r)
      else (None, tag)
    in
    let nw_tos = Buf.read_u8 r in
    let nw_proto = Buf.read_u8 r in
    let nw_src = Buf.read_u32 r in
    let nw_dst = Buf.read_u32 r in
    let tp_src = Buf.read_u16 r in
    let tp_dst = Buf.read_u16 r in
    let payload_len = Buf.read_u32 r in
    {
      dl_src;
      dl_dst;
      dl_vlan;
      dl_type;
      nw_src;
      nw_dst;
      nw_proto;
      nw_tos;
      tp_src;
      tp_dst;
      payload_len;
    }
  with Buf.Underflow -> failwith "Packet.of_frame: truncated frame"
