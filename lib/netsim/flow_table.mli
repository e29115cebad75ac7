(** A single OF 1.0 flow table: priority-ordered entries with wildcard
    matching, strict/non-strict modify and delete, and timeout expiry.

    A table is a mutable handle on an immutable {!Version.t}. Every change
    builds a new version that shares everything it did not touch with the
    old one and swaps it into the handle, so {!current} captures a table in
    O(1) and a captured version never changes. The invariant snapshot keeps
    one version per switch and applies hypothetical flow-mods to it with
    {!Version.apply}, the same code the switch runs.

    A version holds its priorities as a list in descending order. Each
    priority keeps its fully-specified patterns in a persistent exact-match
    index keyed by {!Ofp_match.hash}, and its wildcarded patterns in
    insertion order. Costs, for a table of [n] rules over [p] priorities
    and [w] wildcarded rules:
    - lookup: O(p + w), plus one hash of the packet's header and one
      O(log n) index probe per priority that has exact rules;
    - add, and strict modify or delete: O(p + log n), plus O(w) for a
      wildcarded pattern;
    - non-strict modify or delete: O(n) to find what it touches when its
      pattern has a wildcard, O(p log n) when it has none;
    - expire: O(n), allocating nothing per entry when nothing has
      expired;
    - {!changed_since}: O(changes since the generation asked about);
    - {!entries}: O(n log n).

    Entry records are shared between versions, not copied: the counters
    and idle-time refreshes of live traffic ({!Flow_entry.account}) are
    visible in every version holding the entry. A modify replaces the
    entries it touches with new records, so older versions keep the old
    actions.

    Once asked ({!changed_since}), the handle also records what each of
    its last 32 changes could alter: the invariant engine re-captures a
    switch and drops only the cached traces such a pattern matches.
    Nothing walks a table for its next expiry ahead of time; a trace
    takes its expiry from the entries it matched
    ({!Flow_entry.deadline}). *)

open Openflow

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
    statement of this rule: {!modify}, {!delete}, {!touched} and
    {!Version.apply} all call it. *)

(** One immutable state of a table. *)
module Version : sig
  type t

  val empty : t

  val size : t -> int
  (** Entry count; O(1). *)

  val entries : t -> Flow_entry.t list
  (** Entries in priority order (highest first); ties in insertion order.
      Built on each call. *)

  val apply : t -> now:float -> Message.flow_mod -> t * Flow_entry.t list
  (** The version after one flow-mod, per OF 1.0: [Add] installs, replacing
      an entry with identical match and priority; [Modify]/[Modify_strict]
      rewrite the actions of what they {!touches}, or add when nothing
      matched; [Delete]/[Delete_strict] remove what they touch. Returns the
      deleted entries in priority order ([[]] for adds and modifies). The
      argument is unchanged, and a delete that touches nothing returns it
      as it is. *)

  val lookup :
    t -> now:float -> in_port:Types.port_no -> Packet.t -> Flow_entry.t option
  (** Highest-priority entry live at [now] that matches the packet; among
      equal priorities the first installed. Counters are NOT touched. *)

  val fold_wild : (Flow_entry.t -> 'a -> 'a) -> t -> 'a -> 'a
  (** Fold over the entries whose pattern has a wildcarded field, in
      {!entries} order. Every other entry matches one exact header. *)
end

type t

val current : t -> Version.t
(** The table's version now; O(1). Later changes to the table do not
    alter it. *)

val create : unit -> t

val size : t -> int
(** Entry count; O(1). *)

val generation : t -> int
(** Monotonic mutation counter: bumps whenever the version is swapped,
    that is whenever the rule set changes (add/modify/delete/clear/expire).
    Snapshot and invariant-cache layers compare generations to detect
    change without diffing rules. *)

val changed_since : t -> gen:int -> Ofp_match.t list option
(** The patterns of every change since generation [gen]: a lookup whose
    header no returned pattern matches answers as it did at [gen], or
    found an entry that has timed out since. The table keeps, in a ring,
    one record for each of its last 32 changes: an add, modify or delete
    records its pattern (interned), which subsumes every entry it
    touches; an expire records nothing, as what it removes was already
    dead and answered no lookup. [None] when a clear happened since
    [gen], or when the ring no longer reaches back to it; [Some []] when
    [gen] is the current generation.

    The ring is made by the first call on a table, which answers [None]:
    a table nobody asks about keeps no ring. Its size covers every
    re-capture measured on the end-to-end benchmark's workloads (at most
    16 changes between two captures of a switch, on faults-k4). *)

val entries : t -> Flow_entry.t list
(** [Version.entries (current t)]: built on each call. *)

val clear : t -> unit

val add : t -> Flow_entry.t -> unit
(** Install an entry. An existing entry with identical match and priority is
    replaced (counters reset), per OF 1.0 Add semantics. Patterns arrive
    {!Ofp_match.intern}ed (see {!Flow_entry.of_flow_mod}), so identical
    patterns across tables share one heap block fabric-wide and the exact
    index probes by pointer. *)

val modify :
  t -> strict:bool -> Ofp_match.t -> priority:int -> Action.t list -> bool
(** Give every entry the modify {!touches} the new action list: each is
    replaced by a copy carrying its counters so far, in the same place in
    insertion order. Returns [false] when nothing matched — the caller must
    then fall back to an add, as the spec says. *)

val delete :
  t ->
  strict:bool ->
  ?out_port:Types.port_no ->
  Ofp_match.t ->
  priority:int ->
  Flow_entry.t list
(** Remove every entry the delete {!touches} and return them, in priority
    order. *)

val touched :
  t ->
  strict:bool ->
  ?out_port:Types.port_no ->
  Ofp_match.t ->
  priority:int ->
  Flow_entry.t list
(** The entries a modify or delete with these parameters {!touches}, in
    priority order, leaving the table as it is. The table is searched as
    {!delete} searches it, not scanned: NetLog reads this to build the
    undo of a modify or delete. *)

val apply : t -> now:float -> Message.flow_mod -> Flow_entry.t list
(** {!Version.apply} to the current version, swapped in when it changed.
    Returns the deleted entries. The switch and the reliable layer's shadow
    tables both apply flow-mods through this. *)

val lookup : t -> now:float -> in_port:Types.port_no -> Packet.t
  -> Flow_entry.t option
(** {!Version.lookup} on the current version. Counters are NOT touched;
    callers decide whether the lookup is a forwarding event
    ({!Flow_entry.account}) or a read-only probe. *)

val expire : t -> now:float
  -> (Flow_entry.t * Message.flow_removed_reason) list
(** Remove every timed-out entry, returning each with its reason, in
    priority order. When nothing has timed out it only reads the table:
    no version is built and the generation does not move. *)

val find_exact : t -> Ofp_match.t -> priority:int -> Flow_entry.t option
(** The entry with exactly this match and priority, if present. *)

val pp : Format.formatter -> t -> unit
