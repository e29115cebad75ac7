(** Application checkpoint store: the CRIU analogue.

    The proxy checkpoints an application before dispatching events to it.
    Checkpointing every event is the paper's §4.1 baseline; §5 proposes
    checkpointing every k events and replaying the journal on recovery —
    both supported here by the cadence [Every k].

    A store sees only images: the bytes {!Sandbox} serialized an app
    state into. It never serializes anything itself.

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

  (** Accounting for one {!keep_or_store}. [written_bytes] is the cost
      model for a delta write: bytes of chunks not already present, plus
      the manifest overhead (16 bytes + 10 per chunk reference). *)
  type write = {
    hits : int;  (** Chunks already present — deduplicated. *)
    misses : int;  (** Chunks newly stored. *)
    deduped_bytes : int;  (** Bytes avoided thanks to chunk reuse. *)
    written_bytes : int;  (** New chunk bytes + manifest overhead. *)
  }

  val keep_or_store :
    t -> kept:(bytes * manifest) option -> bytes -> manifest * write
  (** [keep_or_store t ~kept b] stores [b] and returns its manifest,
      holding one reference on each of its chunks — unless [kept] is
      [Some (image, m)] with [b == image], the very bytes [m] was stored
      from: then it returns [m] itself, stores nothing and takes no
      reference.

      A kept manifest is accounted as the store would account it while
      [m] is still held: every chunk is present, so each one hits,
      [deduped_bytes] is the whole length and only the manifest overhead
      is written; the lifetime statistics rise by as much. Byte-equal
      but distinct bytes are stored afresh and, every chunk being
      present, report the same numbers.

      The caller releases the manifest it held only when a different one
      is returned, and only after this call, so chunks the two share
      survive the swap. *)

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
      written : int;
          (** Bytes actually written (the image's length when full). *)
      chunk_hits : int;
      chunk_misses : int;
      deduped : int;
    }
  | Materialized  (** A delta store reassembled its restore point. *)

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

val is_delta : t -> bool

val due : t -> bool
(** Is a snapshot due before the next event? O(1) — always true before
    the first snapshot. *)

val take : t -> bytes -> unit
(** [take t image] stores [image], the serialized app state, as the new
    restore point and clears the replay journal.

    A full store holds [image] itself and writes its whole length. A
    delta store hands it to {!Chunk_store.keep_or_store} beside the
    bytes and manifest it holds: the very bytes of the previous take
    ([==]) keep their manifest, as CRIU's incremental dumps skip pages no
    write touched; any other bytes are chunked and stored. Either way the
    accounting is what storing [image] afresh reports, so no counter can
    tell a kept image from a stored one.

    The store keeps [image]: the caller must not mutate it afterwards. *)

val record_applied : t -> Controller.Event.t -> unit
(** Note that the application successfully processed this event after the
    last snapshot; it becomes part of the replay journal. *)

val restore_point : t -> (bytes * Controller.Event.t list) option
(** The latest snapshot (materialized from chunks when delta) and the
    journal of events applied since (oldest first); [None] before any
    snapshot was taken. A full store returns the very bytes it was handed
    by {!take}, which its caller may share (the sandbox's
    {!Sandbox.snapshot_bytes}): callers must not mutate them. *)

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
