(** A parsed packet header: the fields an OpenFlow 1.0 switch can match on,
    plus an opaque payload length.

    The simulator forwards header records rather than raw frames, but every
    packet that crosses a controller boundary (packet-in, packet-out) is
    serialized to a wire frame and re-parsed, so header/frame round-tripping
    is exercised on every control-plane hop. *)

type t = {
  dl_src : Types.mac;
  dl_dst : Types.mac;
  dl_vlan : int option;      (** VLAN id, if tagged. *)
  dl_type : int;             (** EtherType, e.g. 0x0800 (IPv4), 0x0806 (ARP). *)
  nw_src : Types.ip;
  nw_dst : Types.ip;
  nw_proto : int;            (** IP protocol (6 TCP, 17 UDP, 1 ICMP); for ARP,
                                 the opcode. *)
  nw_tos : int;
  tp_src : int;              (** Transport source port (or ICMP type). *)
  tp_dst : int;              (** Transport destination port (or ICMP code). *)
  payload_len : int;         (** Opaque payload byte count. *)
}

val ethertype_ip : int
val ethertype_arp : int
val proto_tcp : int
val proto_udp : int

val make :
  ?dl_vlan:int option ->
  ?dl_type:int ->
  ?nw_proto:int ->
  ?nw_tos:int ->
  ?tp_src:int ->
  ?tp_dst:int ->
  ?payload_len:int ->
  dl_src:Types.mac ->
  dl_dst:Types.mac ->
  nw_src:Types.ip ->
  nw_dst:Types.ip ->
  unit ->
  t
(** A packet with sensible defaults: untagged IPv4/TCP, 64-byte payload. *)

val tcp :
  src_host:int -> dst_host:int -> ?sport:int -> ?dport:int -> unit -> t
(** Convenience: a TCP packet between simulated hosts, with deterministic
    host-derived MAC and IP addresses. *)

val arp_request : src_host:int -> dst_host:int -> t
(** An ARP request from [src_host] looking for [dst_host]; broadcast at L2. *)

val size : t -> int
(** Total frame size in bytes (headers + payload), used for byte counters. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val to_frame : t -> bytes
(** Serialize to a pseudo-Ethernet frame. *)

val of_frame : bytes -> t
(** Parse a frame produced by {!to_frame}. Raises [Failure] on garbage. *)
