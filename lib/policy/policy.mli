(** A small NetKAT-style network policy language and its compiler.

    Applications describe forwarding *intent* — predicates over the eleven
    OpenFlow 1.0 header fields combined with forward/flood/drop/modify
    actions, composed by union and sequencing — and the compiler turns the
    intent into prioritized flow tables (one per switch) whose patterns are
    interned {!Openflow.Ofp_match.t} values, emitted as ordinary flow-mods.

    Two independent semantics are exposed and kept in agreement:

    - {!denotation} is the reference evaluator: the forwarding relation of a
      policy, packet by packet, defined directly on the syntax tree.
    - {!eval_table} evaluates a compiled table the way the simulated switch
      would (first match wins, OF 1.0 action-list staging, FLOOD expansion).

    The qcheck differential in [test/t_policy.ml] proves the two agree over
    random policies × random packets; Crash-Pad uses the same agreement
    check (plus the incremental invariant engine) to verify that a derived
    compromise preserves the forwarding relation before replaying it.

    Processing model: [Forward]/[Flood] {e tee} a copy of the packet to the
    port(s) and pass the packet on to the rest of a sequence; [Drop] (and a
    failed [Filter]) ends processing. [Seq (Modify m, p)] applies [p] to the
    rewritten packet. [Union] runs both branches on the same packet. *)

open Openflow

(** {1 Syntax} *)

(** An exact test on one OpenFlow 1.0 header field. [Dl_vlan None] matches
    untagged packets, mirroring [Ofp_match]'s [Some None]. *)
type hv =
  | In_port of Types.port_no
  | Dl_src of Types.mac
  | Dl_dst of Types.mac
  | Dl_vlan of int option
  | Dl_type of int
  | Nw_src of Types.ip
  | Nw_dst of Types.ip
  | Nw_proto of int
  | Nw_tos of int
  | Tp_src of int
  | Tp_dst of int

type pred =
  | True
  | False
  | Test of hv
  | And of pred * pred
  | Or of pred * pred
  | Neg of pred

(** A header rewrite. Only the fields OpenFlow 1.0 can set are listed —
    there is no action for [dl_type], [nw_proto] or [in_port]. *)
type update =
  | To_dl_src of Types.mac
  | To_dl_dst of Types.mac
  | To_vlan of int
  | To_no_vlan  (** strip the VLAN tag *)
  | To_nw_src of Types.ip
  | To_nw_dst of Types.ip
  | To_nw_tos of int
  | To_tp_src of int
  | To_tp_dst of int

type t =
  | Filter of pred
  | Forward of Types.port_no
  | Flood
  | Drop
  | Modify of update
  | Union of t * t
  | Seq of t * t
  | At of Types.switch_id * t
      (** [At (sw, p)]: behave as [p] on switch [sw], drop elsewhere. *)

(** {1 Constructors} *)

val filter : pred -> t
val forward : Types.port_no -> t
val flood : t
val drop : t
val modify : update -> t
val union : t -> t -> t
val seq : t -> t -> t
val at : Types.switch_id -> t -> t
val union_all : t list -> t
(** Union of a list; [Drop] when empty. *)

val ite : pred -> t -> t -> t
(** [ite b p q] = [Union (Seq (Filter b, p), Seq (Filter (Neg b), q))]. *)

val conj : pred list -> pred
val disj : pred list -> pred

val pp : Format.formatter -> t -> unit

(** {1 Reference semantics} *)

val denotation :
  ports:(Types.switch_id -> Types.port_no list) ->
  t ->
  sw:Types.switch_id ->
  in_port:Types.port_no ->
  Packet.t ->
  (Packet.t * Types.port_no) list
(** The forwarding relation: the set of (header state, egress port)
    transmissions the policy produces for one located packet, sorted and
    deduplicated. [ports sw] must list the flood-eligible (up, non-NO_FLOOD)
    ports of [sw]; flood copies exclude the ingress port, matching the
    simulated switch. Punts and un-transmitted continuations are not part
    of the relation. *)

(** {1 Compilation} *)

exception Uncompilable of string
(** Raised when a policy has no OpenFlow 1.0 action-list realization — the
    classic case is a multicast whose copies need rewrites that cannot be
    sequenced (each copy's headers would have to diverge from every
    serialization of the rewrite chain, e.g. two copies modifying the same
    wildcarded field differently with no pinned value to restore). *)

type row = {
  r_priority : int;
  r_pattern : Ofp_match.t;  (** interned *)
  r_actions : Action.t list;
}

type table = { t_sw : Types.switch_id; t_rows : row list }
(** Rows are listed with non-increasing priority, and the listing is a
    first-match order: a packet's first matching row is the one it
    takes. Any two rows whose patterns overlap have distinct priorities,
    the earlier one higher, so the switch's highest-priority match is
    that first match whatever order the rows were installed in; rows
    that share a priority match disjoint packets. Patterns are pairwise
    distinct. A packet matching no row is not part of the compiled
    forwarding relation (the switch punts it to the controller). *)

val restrict : Types.switch_id -> t -> t
(** [restrict sw pol] is switch [sw]'s share of [pol]: [At] bundles for
    other switches become [Drop], and [Drop] falls out of a [Union] and
    ends a [Seq]. Its {!denotation} at [sw] is [pol]'s. {!compile} builds
    [sw]'s table from this share and {!agrees} evaluates [sw]'s probes
    against it. Two properties keep it checked: t_policy's differential
    compares {!compile} with the denotation of the unrestricted policy,
    and its per-switch agreement property compares {!agrees} with a
    check against the whole policy. *)

val compile : switches:Types.switch_id list -> t -> table list
(** Compile a policy to one prioritized table per switch, each from that
    switch's share ({!restrict}) alone. All priorities are strictly above
    [Message.default_priority], so compiled intent outranks rules
    installed at the default priority by imperative apps. Trailing drop-everything rows are omitted — an
    unmatched packet punts, which transmits nothing, so the forwarding
    relation is unchanged and the [No_drop_all] invariant is never
    tripped.

    Priorities: walking a switch's rows from the last, a row gets
    [Message.default_priority + 1 + d], where [d] is the largest
    [priority - Message.default_priority] among the later rows its
    pattern overlaps, or [0] when it overlaps none; the rows are then listed by priority, highest
    first (see {!table}). A row's priority thus depends only on the
    later rows it overlaps and their priorities: a new row that overlaps
    no other, such as a route to a new destination, moves no existing
    row, and the diff ({!flow_mods}) is one add. The highest priority is
    at most [Message.default_priority] plus the switch's row count.

    Raises {!Uncompilable} if some row has no action-list realization. *)

val compile_share : Types.switch_id -> t -> table option
(** [compile_share sw (restrict sw pol)] is the table {!compile} builds
    for [sw], [None] when the share compiles to no
    row. A switch's table is a function of its share alone, so a caller
    that kept the share a table came from recompiles only the switches
    whose share changed. Raises {!Uncompilable} like {!compile}. *)

val eval_table :
  ports:(Types.switch_id -> Types.port_no list) ->
  table ->
  in_port:Types.port_no ->
  Packet.t ->
  (Packet.t * Types.port_no) list
(** First-match evaluation of one compiled table with OF 1.0 action
    staging; FLOOD outputs expand through [ports] minus the ingress port.
    Sorted and deduplicated like {!denotation}. *)

val agrees :
  ports:(Types.switch_id -> Types.port_no list) ->
  t ->
  table list ->
  probes:(Types.switch_id * Types.port_no * Packet.t) list ->
  bool
(** Does the compiled forwarding relation match {!denotation} on every
    probe? A switch with no table forwards nothing. The policy is
    {!restrict}ed once per probed switch, so a probe costs what its own
    switch's share of the policy costs, not the whole policy. Only the
    probed switches' tables are read: checking the tables of the
    switches an install changes takes those tables and their
    {!probes}. *)

val probes :
  ports:(Types.switch_id -> Types.port_no list) ->
  table list ->
  (Types.switch_id * Types.port_no * Packet.t) list
(** A deterministic probe set derived from a compiled table: for every row
    a witness packet matching its pattern (wildcards filled with canonical
    values), injected at the pattern's in_port (or every flood-eligible
    port when wildcarded), plus one all-default background packet per
    switch. *)

(** {1 Reconciliation} *)

val flow_mods :
  prev:table list ->
  next:table list ->
  (Types.switch_id * Message.flow_mod) list
(** The flow-mods that take a fabric from [prev] to [next]: adds (which
    also replace a changed action list under OF 1.0 identical
    match+priority semantics) followed by strict deletes of disappeared
    rows. An empty list means the tables already agree. *)

val empty_tables : table list
val table_rows : table list -> int
