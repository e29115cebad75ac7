(** The unified subscription surface.

    One hub per runtime; everything that used to have its own callback
    hook — the event tap, the incremental-checker observer, reliable
    delivery notifications — publishes typed events here, and any number
    of subscribers listen. Subscribers are invoked synchronously in
    subscription order; an exception in one subscriber propagates to the
    publisher (as the old single-callback hooks did). *)

type delivery =
  | Sent of { sw : Openflow.Types.switch_id; xid : int }
      (** A state-altering message was put on the wire. *)
  | Queued of { sw : Openflow.Types.switch_id; xid : int }
      (** Held back behind an unacknowledged message to the same switch. *)
  | Retransmitted of { sw : Openflow.Types.switch_id; xid : int; attempt : int }
  | Acked of { sw : Openflow.Types.switch_id; xid : int }
  | Degraded of { sw : Openflow.Types.switch_id }
      (** Retry budget exhausted; switch declared degraded. *)
  | Resynced of { sw : Openflow.Types.switch_id; rules : int }
      (** Shadow-table replay after reconnection, [rules] rules replayed. *)

type event =
  | Dispatched of Controller.Event.t
      (** A network event entered the runtime dispatch loop. *)
  | Inv_cache of Invariants.Incremental.event
      (** Incremental-checker cache activity. *)
  | Delivery of delivery  (** Southbound reliable-delivery activity. *)

type t
type subscription

val create : unit -> t

val subscribe : t -> (event -> unit) -> subscription
(** Subscribers fire in subscription order. *)

val unsubscribe : t -> subscription -> unit
(** Unknown or already-cancelled subscriptions are ignored. *)

val emit : t -> event -> unit
val subscriber_count : t -> int
