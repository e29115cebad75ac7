(** Core identifier types shared by every layer of the stack.

    OpenFlow 1.0 uses a 64-bit datapath id, 16-bit port numbers, 48-bit MAC
    addresses and 32-bit IPv4 addresses. The simulator never exceeds the
    63-bit OCaml [int] range, so all of these are plain [int]s with
    formatting helpers; cookies stay [int64] as in the wire format. *)

type switch_id = int
(** Datapath identifier. *)

type port_no = int
(** Physical port number, 1-based. Reserved values from the OF 1.0 spec are
    exposed as constants below. *)

type mac = int
(** 48-bit MAC address packed in an [int]. *)

type ip = int
(** 32-bit IPv4 address packed in an [int]. *)

type xid = int
(** OpenFlow transaction id carried in every message header. *)

type queue_id = int

(** {1 Reserved port numbers (OF 1.0 §5.2.1)} *)

val port_in_port : port_no
val port_flood : port_no
val port_all : port_no
val port_controller : port_no
val port_local : port_no
val port_none : port_no

(** {1 Address helpers} *)

val mac_of_octets : int -> int -> int -> int -> int -> int -> mac
val mac_broadcast : mac
val mac_is_broadcast : mac -> bool
val mac_of_host : int -> mac
(** Deterministic MAC for simulated host [i] (vendor prefix 02:00:00). *)

val ip_of_host : int -> ip
(** Deterministic 10.0.x.y address for simulated host [i]. *)

val pp_switch : Format.formatter -> switch_id -> unit
val pp_port : Format.formatter -> port_no -> unit
val pp_mac : Format.formatter -> mac -> unit
val pp_ip : Format.formatter -> ip -> unit

val mac_to_string : mac -> string
val ip_to_string : ip -> string
