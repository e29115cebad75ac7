(** Controller services: switch registry, link discovery and device
    manager — the shared platform state FloodLight keeps below the apps.

    Link discovery consults the simulator topology as an oracle in place of
    LLDP probing (see DESIGN.md substitutions); everything else is learned
    from switch notifications, exactly as a real controller would. *)

open Openflow

type t

val create : Netsim.Clock.t -> Netsim.Topology.t -> t

val ingest : t -> Netsim.Net.notification -> Event.t list
(** Update service state from one southbound notification and return the
    controller events to dispatch to applications (including derived
    link-up/link-down events). Notifications that do not concern
    applications return []. *)

val observe : t -> Event.t -> unit
(** Apply one dispatched event's state effects without emitting anything.
    Events carry everything [ingest] learned when it produced them
    (features, port descs, link endpoints, packet-ins), so replaying a
    dispatched-event log through [observe] on a fresh [t] reconstructs the
    service state the original controller had at dispatch time. The
    cluster layer uses this to give every replica — and a fail-over leader
    re-dispatching committed entries — the same application-visible
    context the original leader saw. *)

(** {1 The topology view}

    What applications read of the topology, [connected_switches],
    [live_links] and [first_hop], comes from one cached view: the connected
    switches ascending, both directions of every live inter-switch link
    ascending, and the shortest-path first hops over those links. The view
    is dropped by exactly these changes, through [ingest] and [observe]
    alike, and rebuilt on the next read:
    - a switch connects ([Net.Switch_connected], [Event.Switch_up]) or
      disconnects ([Net.Switch_disconnected], [Event.Switch_down]);
    - a link is recorded (discovery when a switch connects or a port comes
      up, [Event.Link_up]) or forgotten (its switch disconnects or a port
      goes down, [Event.Link_down]).

    Port states, learned hosts, flow-removed, stats and ticks leave it
    alone. A rebuild sorts the switch and link tables, O(L log L) for L
    recorded link directions, and builds the adjacency; after that a list
    read is one field read, and [first_hop] runs one BFS per source on its
    first query for it (O(L)) and is two integer-keyed lookups from then
    on. *)

val connected_switches : t -> Types.switch_id list
(** Ascending; the same list until the view is dropped. *)

val live_links : t -> Event.link list
(** Both directions of every live inter-switch link, ascending; the same
    list until the view is dropped. *)

val first_hop : t -> Types.switch_id -> Types.switch_id -> Types.port_no option
(** [first_hops (live_links t)], kept with the view: see
    {!App_sig.first_hop}. *)

val first_hops :
  Event.link list -> Types.switch_id -> Types.switch_id -> Types.port_no option
(** [first_hops links src dst] is the port of [src] through which a BFS
    over [links] first reaches [dst], trying each switch's out-links in
    ascending (port, neighbour) order; [None] when [dst] is unreachable,
    [src = dst], or [src] has no out-link. Applied to [links] alone it
    builds the adjacency; each source's BFS runs on its first query and
    is kept. This is the one statement of the controller's routing: the
    view's [first_hop] is this function of [live_links]. *)

val host_location : t -> Types.mac
  -> (Types.switch_id * Types.port_no) option

val context : t -> App_sig.context
(** The read-only view handed to applications. *)
