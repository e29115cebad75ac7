(** Application checkpoint store: the CRIU analogue.

    The proxy checkpoints an application before dispatching events to it.
    Checkpointing every event is the paper's §4.1 baseline; §5 proposes
    checkpointing every k events and replaying the journal on recovery —
    both supported here via [every].

    Beyond the full-blob baseline, {!create_delta} switches a store to
    content-chunked delta snapshots: the snapshot bytes are split into
    fixed-size chunks, and a checkpoint only stores chunks whose content
    changed since the previous one (see {!Chunk_store}). An adaptive
    cadence can replace the fixed every-k rule: a checkpoint is taken when
    the estimated journal-replay cost exceeds the estimated cost of writing
    one. Journal accounting is O(1) either way — [due] never scans. *)

(** Content-addressed chunk storage: the backing store for delta
    checkpoints, shared with {!State_transfer}'s shipped-state store.

    Chunks are refcounted: storing a snapshot takes a reference on every
    chunk it uses, releasing a manifest drops them, and a chunk with no
    remaining references is evicted. Identical chunks are stored once
    (verified by byte comparison, so digest collisions cannot corrupt a
    snapshot). *)
module Chunk_store : sig
  type t

  type manifest
  (** A stored snapshot: an ordered list of chunk references plus the
      original length. Holds one reference on each of its chunks until
      {!release}d. *)

  val create : ?chunk_size:int -> unit -> t
  (** [chunk_size] defaults to 64 bytes. Raises [Invalid_argument] if
      [chunk_size < 1]. *)

  (** Accounting for one {!store}. [written_bytes] is the cost model for a
      delta write: bytes of chunks not already present, plus the manifest
      overhead (16 bytes + 10 per chunk reference). *)
  type write = {
    hits : int;  (** Chunks already present — deduplicated. *)
    misses : int;  (** Chunks newly stored. *)
    deduped_bytes : int;  (** Bytes avoided thanks to chunk reuse. *)
    written_bytes : int;  (** New chunk bytes + manifest overhead. *)
  }

  val store : t -> bytes -> manifest * write

  val store_again : t -> manifest -> write
  (** What {!store} of the bytes [m] holds would account while [m] is
      still held: every chunk is present, so each one hits and only the
      manifest overhead is written. Nothing is stored and no reference
      taken: the caller keeps [m] in place of the manifest that store
      would return, and does not release it. The lifetime statistics
      rise as that store would raise them. *)

  val release : t -> manifest -> unit
  (** Drop the manifest's chunk references; unreferenced chunks are
      evicted. The manifest must not be materialized afterwards. *)

  val materialize : t -> manifest -> bytes
  (** Reassemble the exact original bytes. *)

  (** {2 Lifetime statistics} *)

  val hits : t -> int
  val misses : t -> int
  val bytes_deduped : t -> int
end

(** When is the next checkpoint due? *)
type cadence =
  | Every of int
      (** Fixed k: due once k events are journaled (k = 1 reproduces
          checkpoint-before-every-event). *)
  | Adaptive of {
      replay_cost_per_event : int;
          (** Estimated cost (in write-byte units) of replaying one
              journaled event during restore. *)
      min_events : int;  (** Never checkpoint more often than this. *)
      max_events : int;
          (** Hard journal bound: restore replays at most this many
              events, whatever the cost estimate says. *)
    }
      (** Due when [journal × replay_cost_per_event] exceeds the estimated
          write cost (an EWMA of recent checkpoint writes — cheap delta
          writes pull checkpoints closer, expensive full writes push them
          apart), clamped to \[min_events, max_events\]. *)

(** What just happened, for metrics/tracing observers. *)
type notification =
  | Took of {
      delta : bool;
      logical : int;  (** Snapshot size before chunking. *)
      written : int;  (** Bytes actually written (= logical when full). *)
      chunk_hits : int;
      chunk_misses : int;
      deduped : int;
    }
  | Materialized of { bytes : int; journal : int }
      (** A restore point was produced: snapshot size and the number of
          journal events the caller will replay. *)

type t

val create : ?observer:(notification -> unit) -> every:int -> unit -> t
(** Full-blob storage with fixed cadence [every] = k. Raises
    [Invalid_argument] if [k < 1]. *)

val create_delta :
  ?chunk_size:int ->
  ?observer:(notification -> unit) ->
  cadence:cadence ->
  unit ->
  t
(** Content-chunked storage with the given cadence. Raises
    [Invalid_argument] on a non-positive cadence parameter or
    [min_events > max_events]. *)

val every : t -> int
(** The fixed k for [Every k]; the [max_events] journal bound for
    [Adaptive]. *)

val cadence : t -> cadence
val is_delta : t -> bool

val due : t -> bool
(** Is a snapshot due before the next event? O(1) — always true before
    the first snapshot. *)

val take : t -> Controller.App_sig.instance -> unit
(** Snapshot the instance's state now and clear the replay journal.

    A take of the very instance ([==]) the stored image was taken of
    keeps that image instead of serializing the state again, as CRIU's
    incremental dumps skip pages no write touched. It is sound because
    states are immutable ({!Controller.App_sig}'s purity contract): the
    instance would serialize to the stored bytes, and
    {!Controller.App_sig.handle} returns its input instance exactly when
    the app hands back its state unchanged. A restored, rebooted or
    shipped state is a new instance, so it is serialized in full.

    The accounting is what a fresh serialization would report, so no
    counter can tell the two apart: a full store writes [logical] bytes;
    a delta store finds every chunk already stored, so it counts each as
    a hit, [deduped = logical], and writes the manifest overhead. The
    store's hit and dedup totals rise by as much, and no chunk's
    refcount moves. *)

val record_applied : t -> Controller.Event.t -> unit
(** Note that the application successfully processed this event after the
    last snapshot; it becomes part of the replay journal. *)

val restore_point : t -> (bytes * Controller.Event.t list) option
(** The latest snapshot (materialized from chunks when delta) and the
    journal of events applied since (oldest first); [None] before any
    snapshot was taken. *)

val journal_length : t -> int
(** O(1). *)

val snapshots_taken : t -> int

val bytes_written : t -> int
(** Cumulative bytes written — the checkpoint overhead metric. Full blobs
    count their whole length; delta checkpoints count new chunk bytes plus
    manifest overhead. *)

val last_snapshot_bytes : t -> int
(** Logical size of the latest snapshot. *)

val last_write_bytes : t -> int
(** Bytes the latest {!take} actually wrote. *)

(** {2 Chunk-store statistics} (all 0 for full-blob stores) *)

val chunk_hits : t -> int
val chunk_misses : t -> int
val chunk_bytes_deduped : t -> int
