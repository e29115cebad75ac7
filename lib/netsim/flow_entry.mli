(** One entry of a switch flow table, with the mutable counters and timeout
    bookkeeping OF 1.0 attaches to it. *)

open Openflow

type t = {
  pattern : Ofp_match.t;
  priority : int;
  actions : Action.t list;
  cookie : int64;
  idle_timeout : int;  (** Seconds; 0 disables. *)
  hard_timeout : int;  (** Seconds; 0 disables. *)
  notify_when_removed : bool;
  installed_at : float;
  mutable last_used : float;
  mutable packet_count : int;
  mutable byte_count : int;
}

val of_flow_mod : now:float -> Message.flow_mod -> t
(** Entry created by an [Add] (or add-semantics [Modify]) flow-mod. The
    pattern is {!Ofp_match.intern}ed (as in [make]), so identical patterns
    across all entries and tables share one heap block. *)

val make :
  ?cookie:int64 ->
  ?idle_timeout:int ->
  ?hard_timeout:int ->
  ?priority:int ->
  ?notify_when_removed:bool ->
  now:float ->
  Ofp_match.t ->
  Action.t list ->
  t

val matches : t -> in_port:Types.port_no -> Packet.t -> bool

val account : t -> now:float -> Packet.t -> unit
(** Record one matched packet: bumps counters and refreshes idle time. *)

val expiry_reason : t -> now:float -> Message.flow_removed_reason option
(** [Some Removed_hard]/[Some Removed_idle] when the entry has timed out at
    [now], [None] while it is still live. Hard timeout wins ties. *)

val live : t -> now:float -> bool
(** [expiry_reason e ~now = None] without a polymorphic compare: the
    per-rule test of every lookup. *)

val duration : t -> now:float -> int
(** Whole seconds since installation. *)

val to_flow_stat : now:float -> t -> Message.flow_stat
val to_flow_removed : now:float -> Message.flow_removed_reason -> t
  -> Message.flow_removed

val restore :
  t ->
  remaining_idle:int ->
  remaining_hard:int ->
  now:float ->
  packet_count:int ->
  byte_count:int ->
  t
(** A copy of the entry re-installed at [now] whose timeouts are shortened
    to the remaining lifetime and whose counters continue from the given
    values. This is NetLog's flow-restore primitive: undoing a delete must
    not grant the flow a fresh lease on life. *)

val pp : Format.formatter -> t -> unit
