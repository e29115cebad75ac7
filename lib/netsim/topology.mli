(** Network topology: switches, hosts and the links wiring them together.

    Nodes are identified by {!node}; every link joins two (node, port)
    endpoints and carries an up/down state. Hosts attach to switches through
    ordinary links (host side always port 1). All accessors iterate in
    deterministic (sorted) order.

    A topology is built once and never unwired. {!connect} fills two
    indexes, a table from (node, port) to its link and each node's wired
    ports in ascending order, so the per-packet lookups ({!link_at},
    {!peer}, {!peer_even_if_down}, {!host_attachment}) cost one hash
    lookup and {!switch_ports} returns a stored list, whatever the
    number of links. A link between two ports of one switch wires both
    ports: each is listed, and each is the other's peer. *)

open Openflow

type host = int

type node = Switch of Types.switch_id | Host of host

type endpoint = { node : node; port : Types.port_no }

type link = {
  link_id : int;
  a : endpoint;
  b : endpoint;
  mutable up : bool;
}

type t

val create : unit -> t

val add_switch : t -> Types.switch_id -> unit
(** Declare a switch (one lookup). Raises [Invalid_argument] on duplicates. *)

val add_host : t -> host -> unit

val connect : t -> endpoint -> endpoint -> link
(** Wire two endpoints together. Raises [Invalid_argument] if either
    (node, port) is already wired, an endpoint is wired to itself, or a
    node is undeclared. Cost: two index lookups per endpoint plus a sorted
    insert into each node's port list. *)

val attach_host : t -> host -> Types.switch_id -> Types.port_no -> link
(** Convenience: declare nothing, just [connect] host port 1 to the switch
    port. *)

val switches : t -> Types.switch_id list
(** All switch ids, ascending: a stored list, which the first call of this
    or {!hosts} after a node is declared sorts. *)

val hosts : t -> host list

val links : t -> link list
(** All links, in creation order. Cost: a fresh list of every link. *)

val peer : t -> node -> Types.port_no -> endpoint option
(** The far end of the live link at (node, port); [None] if unwired or the
    link is down. One lookup. *)

val peer_even_if_down : t -> node -> Types.port_no -> endpoint option
(** The far end of the link at (node, port), whatever its state. One
    lookup. *)

val link_at : t -> node -> Types.port_no -> link option
(** The link wired at (node, port), whatever its state. One lookup. *)

val link_between : t -> node -> node -> link option
(** The first link joining the two nodes in creation order (the smallest
    [link_id]), in either orientation and regardless of state. Cost: a
    walk of the first node's ports. *)

val switch_ports : t -> Types.switch_id -> (Types.port_no * link) list
(** Wired ports of a switch, ascending by port number; a link with both
    ends on the switch appears once per port. Returns the stored list. *)

val host_attachment : t -> host -> (Types.switch_id * Types.port_no) option
(** Where a host plugs into the fabric (via a live or dead link). One
    lookup. *)

val hosts_on : t -> Types.switch_id -> (host * Types.port_no) list
(** Hosts attached to the switch, with the switch-side port. Cost: a walk
    of the switch's ports. *)

val neighbor_switches :
  t -> Types.switch_id
  -> (Types.switch_id * Types.port_no * Types.port_no) list
(** Adjacent switches over live links as
    (neighbor, local port, remote port), ascending by neighbor id. Cost: a
    walk and a sort of the switch's ports. *)

val set_link : link -> up:bool -> unit

val pp : Format.formatter -> t -> unit
val pp_node : Format.formatter -> node -> unit
