(** A pure, frozen copy of data-plane state: flow tables, port liveness and
    NO_FLOOD flags, and switch liveness at one instant, plus the (shared,
    read-only) topology.

    Crash-Pad checks an application's *proposed* output before it touches
    the network, so the snapshot supports applying hypothetical flow-mods
    functionally and probing the result.

    A switch's flow table is held as the table's {!Netsim.Flow_table.Version.t},
    so capturing a switch reads its table handle in O(1) and copies no
    rule; lookups and overlays are the table's own
    {!Netsim.Flow_table.Version.lookup} and
    {!Netsim.Flow_table.Version.apply}. *)

open Openflow

type t

val of_net : Netsim.Net.t -> t
(** Freeze the current state of a live network. *)

val refresh : t -> Netsim.Net.t -> dirty:Types.switch_id list -> t
(** A new snapshot at the network's current clock that re-captures only the
    [dirty] switches, in O(ports) each; every other switch's state is
    shared structurally with [t]. The caller (the incremental engine) is
    responsible for naming every switch whose {!Netsim.Sw.version} moved
    since [t] was taken. *)

val topology : t -> Netsim.Topology.t

val table : t -> Types.switch_id -> Netsim.Flow_table.Version.t
(** The captured flow table of a switch; empty for unknown switches. *)

val entries : t -> Types.switch_id -> Netsim.Flow_entry.t list
(** Flow entries of a switch in priority order; [] for unknown switches. *)

val apply_flow_mod : t -> Types.switch_id -> Message.flow_mod -> t
(** The snapshot after the flow-mod: {!Netsim.Flow_table.Version.apply} on
    the switch's captured table at the snapshot's instant (the original is
    unchanged). *)

val apply_flow_mods : t -> (Types.switch_id * Message.flow_mod) list -> t

(** Result of tracing one packet through the frozen tables. *)
type probe = {
  reached : Netsim.Topology.host list;
  punted_at : Types.switch_id list;
  blackholed_at : Types.switch_id list;
  looped : bool;
  path : (Types.switch_id * Types.port_no * Packet.t) list;
      (** Every hop in visit order: the switch, the port the packet
          arrived on, and its header on arrival (after any upstream
          rewrite). The switch's lookup for exactly that header and port
          decides the hop, which is what lets the incremental engine tell
          whether a flow-mod can change the trace. *)
}

val trace : t -> Netsim.Topology.host -> Packet.t -> probe
(** Follow a packet injected by a host, as the data plane would forward
    it: each hop's copies leave by {!Netsim.Sw.egress}, and a copy that
    revisits a (switch, port, header) or exceeds {!Netsim.Net.hop_limit}
    hops marks the trace [looped]. Pure: no counter or buffer changes. *)
