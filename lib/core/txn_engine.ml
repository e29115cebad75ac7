(** The transaction-engine interface.

    The runtime runs on {!Netlog} (eager apply + inverse-based rollback,
    the paper's design). {!Delay_buffer} (queue until commit, the
    prototype's stopgap from §4.1) is kept only as the E9 ablation: E9 and
    the bench's E8-E9 group drive both engines through this signature. *)

module type S = sig
  type t
  type txn

  val begin_txn : t -> app:string -> txn

  val apply : t -> txn -> Controller.Command.t -> Openflow.Message.t list
  (** Run one application command inside the transaction; returns any
      synchronous switch replies that applications should see (e.g.
      statistics). *)

  val commit : t -> txn -> unit
  val abort : t -> txn -> unit
end
