(** Network invariants and their checker — the policy-checker role VeriFlow
    plays in the paper ([20]): Crash-Pad consults it to detect byzantine
    application failures before faulty rules are committed, and operators
    use it to define "No-Compromise" invariants. *)

open Openflow

type violation =
  | Forwarding_loop of {
      src : Netsim.Topology.host;
      dst : Netsim.Topology.host;
      path : (Types.switch_id * Types.port_no) list;
    }
  | Black_hole of {
      src : Netsim.Topology.host;
      dst : Netsim.Topology.host;
      at : Types.switch_id list;
    }
  | Unreachable of { src : Netsim.Topology.host; dst : Netsim.Topology.host }
  | Drop_all_rule of { sw : Types.switch_id; priority : int }
  | Waypoint_bypassed of {
      src : Netsim.Topology.host;
      dst : Netsim.Topology.host;
      waypoint : Types.switch_id;
    }
  | Isolation_breached of {
      src : Netsim.Topology.host;
      dst : Netsim.Topology.host;
    }

type invariant =
  | Loop_freedom
      (** No canonical host-pair packet may revisit forwarding state. *)
  | Black_hole_freedom
      (** No matched packet may be forwarded into a dead end (an explicit
          drop rule is fine; silently losing traffic is not). *)
  | Pairwise_reachability of (Netsim.Topology.host * Netsim.Topology.host) list
      (** These (src, dst) pairs must be deliverable using installed rules
          only. *)
  | No_drop_all
      (** No match-everything rule with empty actions at or above default
          priority. *)
  | Waypoint of {
      pairs : (Netsim.Topology.host * Netsim.Topology.host) list;
      via : Types.switch_id;
    }
      (** Traffic between each listed (src, dst) pair, when it is delivered
          at all using installed rules, must traverse switch [via] — the
          classic middlebox/firewall waypointing property. *)
  | Isolation of {
      group_a : Netsim.Topology.host list;
      group_b : Netsim.Topology.host list;
    }
      (** No packet may be deliverable between the two host groups (in
          either direction): a "No-Compromise" security invariant in the
          paper's sense. *)

val default : invariant list
(** [Loop_freedom; Black_hole_freedom; No_drop_all] — the safety properties
    the paper names (black-holes and network-loops). *)

val canonical_packet :
  Netsim.Topology.host -> Netsim.Topology.host -> Packet.t
(** The representative packet used to probe a (src, dst) pair — a
    VeriFlow-style equivalence-class approximation: one canonical TCP
    packet per ordered pair. Any cache of traces must key on the same
    packet the checker probes with. *)

val host_pairs :
  Netsim.Topology.t -> (Netsim.Topology.host * Netsim.Topology.host) list
(** Every ordered pair of distinct hosts, ascending by (src, dst): the
    pairs {!Loop_freedom} and {!Black_hole_freedom} probe, in the order
    they probe them. *)

val reachable :
  Snapshot.t -> Netsim.Topology.host -> Netsim.Topology.host -> bool
(** Whether {!canonical_packet} from [src] reaches [dst] in the snapshot,
    using only installed rules (no controller help). *)

val connectivity : Snapshot.t -> float
(** Fraction of ordered host pairs for which {!reachable} holds; 1.0 on a
    fully programmed network (or one with fewer than two hosts). Walks the
    pairs without building a list of them. *)

val check : ?invariants:invariant list -> Snapshot.t -> violation list
(** Violations in the snapshot, probing every ordered host pair with
    {!canonical_packet}. Traces are memoized within one call, so several
    invariants probing the same pair cost one trace. *)

(** The part of the network a check looks at. *)
type scope = {
  pairs : (Netsim.Topology.host * Netsim.Topology.host) list;
      (** Replaces {!host_pairs} for {!Loop_freedom} and
          {!Black_hole_freedom}; keep it in that order (ascending). *)
  listed : Netsim.Topology.host -> Netsim.Topology.host -> bool;
      (** Which of the pairs named by {!Pairwise_reachability},
          {!Waypoint} and {!Isolation} are probed. *)
  switches : Types.switch_id list;
      (** The switches {!No_drop_all} scans, ascending. *)
}

val check_with :
  ?invariants:invariant list ->
  ?scope:scope ->
  trace:(Netsim.Topology.host -> Netsim.Topology.host -> Snapshot.probe) ->
  Snapshot.t ->
  violation list
(** Like {!check} but probing through [trace] instead of tracing the
    snapshot directly. Violations and their order are identical to
    {!check} whenever [trace src dst] agrees with
    [Snapshot.trace snap src (canonical_packet src dst)] — this is how the
    incremental engine substitutes cached probes without changing
    results. With [scope] (default: every host pair, every listed pair,
    every switch), the result is the subsequence of that list whose pairs
    and switches the scope keeps. *)

val diff_new : before:violation list -> violation list -> violation list
(** The violations of the second list that are new relative to [before],
    keyed by violation kind and endpoints (not full structural equality,
    so pre-existing damage that merely shifts location is not counted as
    new). Order of the second list is preserved. *)

val check_flow_mods :
  ?invariants:invariant list ->
  Snapshot.t ->
  (Types.switch_id * Message.flow_mod) list ->
  violation list
(** Violations that the hypothetical flow-mods would introduce: violations
    present after applying them minus those already present before — so
    pre-existing damage is not pinned on the app under test. *)

val violation_kind : violation -> string
val pp_violation : Format.formatter -> violation -> unit
