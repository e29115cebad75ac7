(** A single OF 1.0 flow table: priority-ordered entries with wildcard
    matching, strict/non-strict modify and delete, and timeout expiry. *)

open Openflow

type t

val create : unit -> t

val size : t -> int
(** Cached entry count; O(1). *)

val generation : t -> int
(** Monotonic mutation counter: bumps whenever the rule set changes
    (add/modify/delete/clear/expire). Snapshot and invariant-cache layers
    compare generations to detect change without diffing rules. *)

val entries : t -> Flow_entry.t list
(** Entries in priority order (highest first); ties in insertion order.
    Memoized between mutations — repeated calls return the same list. *)

val clear : t -> unit

val add : t -> Flow_entry.t -> unit
(** Install an entry. An existing entry with identical match and priority is
    replaced (counters reset), per OF 1.0 Add semantics. Patterns arrive
    {!Ofp_match.intern}ed (see {!Flow_entry.of_flow_mod}), so identical
    patterns across tables share one heap block fabric-wide and the exact
    index probes by pointer. *)

val touches :
  strict:bool ->
  ?out_port:Types.port_no ->
  Ofp_match.t ->
  priority:int ->
  Flow_entry.t ->
  bool
(** Whether a modify or delete with these parameters touches the entry:
    non-strict, every entry the pattern {!Ofp_match.subsumes}; strict, only
    the entry with exactly this match and priority. [out_port] (deletes
    only) further requires the entry to output to that port. The one
    statement of this rule: {!modify}, {!delete}, NetLog's undo and the
    invariant snapshot's overlay all call it. *)

val modify :
  t -> strict:bool -> Ofp_match.t -> priority:int -> Action.t list -> bool
(** Update the action list of every entry the modify {!touches}, in place
    (preserving counters). Returns [false] when nothing matched — the
    caller must then fall back to an add, as the spec says. *)

val delete :
  t ->
  strict:bool ->
  ?out_port:Types.port_no ->
  Ofp_match.t ->
  priority:int ->
  Flow_entry.t list
(** Remove every entry the delete {!touches} and return them, in priority
    order. *)

val apply : t -> now:float -> Message.flow_mod -> Flow_entry.t list
(** What one flow-mod does to the table, per OF 1.0: [Add] installs;
    [Modify]/[Modify_strict] rewrite what they touch, or add when nothing
    matched; [Delete]/[Delete_strict] remove. Returns the deleted entries
    ([[]] for adds and modifies). The switch and the reliable layer's
    shadow tables both apply flow-mods through this. *)

val lookup : t -> now:float -> in_port:Types.port_no -> Packet.t
  -> Flow_entry.t option
(** Highest-priority live entry matching the packet. Counters are NOT
    touched; callers decide whether the lookup is a forwarding event
    ({!Flow_entry.account}) or a read-only probe. *)

val expire : t -> now:float
  -> (Flow_entry.t * Message.flow_removed_reason) list
(** Remove every timed-out entry, returning each with its reason. *)

val find_exact : t -> Ofp_match.t -> priority:int -> Flow_entry.t option
(** The entry with exactly this match and priority, if present. *)

val pp : Format.formatter -> t -> unit
