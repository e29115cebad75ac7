(** Incremental replica state transfer, keyed on commit index.

    The shipping side of controller replication, used by the cluster
    layer (2f+1 replicas) to keep followers warm: application
    snapshots are content-chunked into a shared {!Checkpoint.Chunk_store},
    so a steady-state ship transfers only the chunks that changed since
    the previous one, and a {!snapshot} records where in the replicated
    event log the shipped state is valid ([commit_index]) together with
    the wire-continuity facts a successor needs ([next_xid], shadow
    tables). *)

module Chunk_store = Checkpoint.Chunk_store

type snapshot = {
  commit_index : int;
      (** Index of the last log entry whose effects the snapshot contains;
          a successor restoring it re-dispatches the log from here. *)
  next_xid : int;
      (** The shipper's NetLog xid counter at ship time: the successor
          seeds its own counter with it so re-dispatched entries
          regenerate byte-identical xids (switch-side dedup then absorbs
          duplicates) and fresh commands never collide. *)
  apps : (string * Chunk_store.manifest) list;
  shadows : (Openflow.Types.switch_id * Netsim.Flow_table.Version.t) list;
      (** The reliable layer's shadow tables as captured versions (O(1)
          per switch at ship time); {!restore} imports their entries. *)
  pending : (Openflow.Types.switch_id * Openflow.Message.t) list;
      (** The shipper's un-acked send queue (FIFO): commands whose wire
          delivery was still outstanding at ship time. The successor
          re-injects them un-sent under their original xids — without
          this, a command held back by head-of-line blocking when its
          producing entry fell inside the snapshot would be lost. *)
}

type t

val create : unit -> t

val ship : t -> commit_index:int -> Runtime.t -> snapshot
(** Store every sandbox's image ({!Sandbox.snapshot_bytes}) through
    {!Checkpoint.Chunk_store.keep_or_store}, beside the bytes and
    manifest of that app's previous ship: the very same bytes keep their
    manifest, other bytes are chunk-deduplicated against it. Then capture
    the wire-continuity state.
    Must be called at a transaction boundary — between event dispatches —
    so [next_xid] names a clean resume point. *)

val restore : t -> snapshot -> Runtime.t -> unit
(** Overwrite [rt]'s application states and reliable-layer shadow tables
    with the snapshot's. [rt] should be freshly created with
    [~xid_base:snapshot.next_xid]. *)

val ships : t -> int

val shipped_bytes : t -> int
(** Cumulative bytes actually shipped: new chunk bytes plus manifest
    overhead — the replication-overhead metric. *)
