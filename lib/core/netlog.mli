(** NetLog: network-wide transactions with inverse-based rollback (§3.2).

    Every state-altering control message is invertible: NetLog captures the
    pre-state a command is about to destroy (the rule an add replaces, the
    rules a modify rewrites, the rules a delete removes — including their
    timeouts and counters) and can therefore undo the whole transaction in
    reverse order. Counter values that OpenFlow cannot re-install are banked
    in a {!Counter_cache} and re-injected into statistics replies.

    Commands are applied to the network eagerly, so the data plane sees
    updates at full speed; an abort walks the undo log. *)

open Openflow

type t

val create :
  ?transport:(Types.switch_id -> Message.t -> Message.t list) ->
  ?xid_base:int ->
  ?metrics:Metrics.t ->
  Netsim.Net.t ->
  t
(** [transport] replaces the raw [Net.send] for every outgoing message —
    the hook by which {!Reliable} interposes barrier-acked retransmission.
    Rollback traffic flows through it too. [xid_base] (default 1) seeds the
    xid counter; a failover controller must pass the predecessor's
    {!next_xid} so switch-side duplicate detection never confuses a fresh
    command with a retransmission. [metrics] receives counter-cache
    eviction counts. *)

val cache : t -> Counter_cache.t

val set_tracer : t -> Obs.Tracer.t -> unit
(** Record every rollback as a [Txn_rollback] span (app and undo count in
    the attributes). Default: the no-op tracer. *)

val next_xid : t -> int
(** The next xid this instance will assign (for failover hand-off). *)

(** Lifetime statistics. *)
val committed : t -> int
val aborted : t -> int
val ops_rolled_back : t -> int

(** One closed transaction, as the close hook receives it. *)
type journal_entry = {
  je_app : string;
  je_committed : bool;  (** [false] = aborted and rolled back. *)
  je_ops : Controller.Command.t list;  (** In application order. *)
  je_rolled_back : int;  (** Undos executed during the abort; 0 for commits. *)
}

val set_close_hook : t -> (journal_entry -> unit) -> unit
(** Hand every transaction this instance closes from now on to the hook,
    as it is committed or aborted. Default: a no-op, so NetLog keeps
    nothing per closed transaction. This is the transaction-atomicity
    surface the dispatch-engine differential tests compare: two engines
    are only equivalent if they commit and abort the same transactions
    with the same commands, in the same order, so those tests set a hook
    that collects the entries. *)

(** {1 Transactions} These four satisfy {!Txn_engine.S}. *)

type txn

val begin_txn : t -> app:string -> txn

val apply : t -> txn -> Controller.Command.t -> Message.t list
(** Execute one command inside the transaction, recording its inverse.
    Statistics replies are counter-cache corrected. Raises
    [Invalid_argument] on a closed transaction. *)

val commit : t -> txn -> unit
(** Seal the transaction; its effects stand. *)

val abort : t -> txn -> unit
(** Undo every applied command, newest first: rules the transaction added
    are removed; rules it removed are restored with their remaining
    timeouts, their counters banked in the cache; rewritten action lists
    are rewritten back. *)
