(** Spans: the unit of the tracing subsystem.

    One span covers one stage of the runtime event lifecycle. Spans nest
    (every span records its parent), carry two timebases — the virtual
    {!Netsim.Clock} instant of the simulation, and a strictly-monotonic
    "wall" time that is either real time (when the host supplies a clock)
    or a deterministic logical tick counter — and a small list of string
    attributes (app name, failure kind, compromise policy, ...). *)

(** The closed set of span kinds: one per instrumented stage. *)
type kind =
  | Event_root  (** One runtime event dispatched to the sandboxes. *)
  | App_handle  (** One (app, event) delivery inside the AppVisor. *)
  | Detection  (** Byzantine screening of proposed commands. *)
  | Txn_commit  (** Applying and committing a transaction's commands. *)
  | Txn_rollback  (** Undoing an aborted transaction (NetLog §3.2). *)
  | Recovery  (** Crash-Pad repair: restore+replay, or policy application. *)
  | Delivery  (** One reliable southbound send, barrier chase included. *)
  | Retransmit  (** A retransmission attempt (instant). *)
  | Resync  (** Replaying intent into a reconnected switch. *)
  | Inv_cache_hit  (** Incremental checker reused a cached trace (instant). *)
  | Inv_cache_miss  (** Incremental checker traced from scratch (instant). *)
  | Ckpt_take  (** Taking an application checkpoint (full or delta). *)
  | Ckpt_restore  (** Materializing a snapshot and replaying the journal. *)
  | Election  (** One leader-election round in the controller cluster. *)
  | Replicate  (** Majority-commit of one replicated log entry. *)
  | State_transfer  (** Incremental replica state transfer (chunk shipping). *)
  | Failover  (** A follower taking over as leader after a kill. *)
  | Batch_root
      (** One batch of batched dispatch; its [events] attribute is the
          batch size. *)
  | Shard_dispatch
      (** No longer emitted: batches are not split into runs. Kept so
          consumers that name it still compile. *)
  | Vote  (** One N-version panel election over a delivered event. *)
  | Outvoted
      (** A variant's output lost an election and was discarded (instant). *)

val all_kinds : kind list

val kind_name : kind -> string
(** Stable names, used by the Chrome-trace codec and metrics registry. *)

val kind_of_name : string -> kind option

type t = {
  id : int;  (** Unique within one tracer, dense from 1. *)
  parent : int;  (** Enclosing span id, or [-1] for a root. *)
  kind : kind;
  vt : float;  (** Virtual time at start (seconds). *)
  vt_end : float;  (** Virtual time at finish. *)
  t0 : float;  (** Wall/logical time at start (seconds). *)
  t1 : float;  (** Wall/logical time at finish. *)
  attrs : (string * string) list;  (** In recording order. *)
}

val duration : t -> float
(** [t1 -. t0]: the wall/logical duration. *)

val is_instant : t -> bool
(** Zero wall duration — recorded with {!Tracer.instant}. *)

val pp : Format.formatter -> t -> unit
