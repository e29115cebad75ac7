(** An isolated application container: the AppVisor stub plus its side of
    the proxy.

    The sandbox owns one application instance. Every event in and every
    command out crosses the boundary through {!Wire} serialization — in
    and out of one reusable {!Wire.scratch} buffer the sandbox owns — and
    every failure mode of the application — exception, partial-emission
    crash, hang — is converted into an explicit {!verdict}; nothing an
    application does can escape the sandbox. This is the fate-sharing
    breaker.

    A sandbox holds application state only. What the network holds of
    the app's declared intent is one record per application
    ({!Crashpad.intent_record}), kept by its {!Voter} unit. *)

open Controller

type verdict =
  | Done of Command.t list
      (** The handler returned; its state was committed and its commands
          (already re-decoded on the proxy side) are ready for NetLog. *)
  | Crashed of { partial : Command.t list; detail : string }
      (** Fail-stop. [partial] are commands that escaped before the crash
          (non-empty only for [Crash_with_partial]). The app state is
          untouched (the crash threw the new state away — as a dead process
          would). *)
  | Hung
      (** The handler would never return; detection is by heart-beat loss. *)

type t

val create : ckpt:Checkpoint.t -> App_sig.app -> t
(** A fresh instance of the application, checkpointed into [ckpt] (full
    or delta storage, fixed or adaptive cadence: the store decides). *)

val name : t -> string
val subscribes_to : t -> Event.kind -> bool

val alive : t -> bool

val disable : t -> unit
(** Take the app out of service (the No-Compromise outcome). *)

val enable : t -> unit

val events_handled : t -> int
val crash_count : t -> int

val rpc_bytes : t -> int
(** Total serialized bytes across the boundary so far (events in + commands
    out), the §3.1 isolation-latency metric. *)

val state_size : t -> int
(** Current serialized application state size: the length of
    {!snapshot_bytes}. *)

val checkpoint_store : t -> Checkpoint.t

val prepare : ?tracer:Obs.Tracer.t -> t -> unit
(** Take a checkpoint if one is due (call before dispatching an event).
    With a tracer, the take is recorded as a [Ckpt_take] span carrying the
    app name and bytes written. *)

val deliver : t -> App_sig.context -> Event.t -> verdict
(** The full RPC path: serialize the event, hand it to the app, serialize
    and return its commands. On [Done] the state has advanced but the event
    is not yet journaled — the proxy decides the fate of the delivery:
    {!confirm} it once its transaction commits, or {!revert_last} it (e.g.
    byzantine output, resource breach). On failure the state is untouched. *)

val confirm : t -> Event.t -> unit
(** Journal a successfully committed event (enables replay after a later
    checkpoint restore). *)

val revert_last : t -> unit
(** Discard the state advance of the most recent {!deliver} (the proxy
    refused to commit it). *)

val checkpoint_now : t -> unit
(** Unconditionally snapshot the current state as the new baseline. *)

(** Result of a checkpoint-restore recovery. *)
type recovery = {
  replayed : int;  (** Journal events re-applied after the snapshot. *)
  dropped_in_replay : int;
      (** Journal events that crashed again during replay and were skipped
          (their effects are already on the network; only state is lost). *)
}

val recover : ?tracer:Obs.Tracer.t -> t -> App_sig.context -> recovery
(** Restore the latest checkpoint and replay the journal (commands produced
    during replay are discarded: they were committed when first executed).
    With no checkpoint yet, falls back to a reboot ([init] state). With a
    tracer, the restore is recorded as a [Ckpt_restore] span carrying the
    journal depth and replay outcome. *)

val reboot : t -> unit
(** Fresh [init] state, clearing nothing else. *)

val declared_policy : t -> App_sig.context -> Policy.t option
(** The app's declared forwarding intent evaluated over its current state,
    or [None] if the app is legacy or its hook raised. *)

val snapshot_bytes : t -> bytes
(** The image of the current state: the one place an application state
    is serialized. Every checkpoint take ({!prepare}, {!checkpoint_now},
    {!recover}, {!restore_bytes}), every ship to a cluster replica and
    {!state_size} read it. Until an event changes the state, every call
    returns the same bytes ([==]) without serializing again, so the
    checkpoint store and the shipping store can keep an unchanged
    state's image by comparing bytes, and a caller must not mutate them.
    It rests on {!App_sig.handle}'s purity contract. Reading it does not
    touch the checkpoint store. *)

val restore_bytes : t -> bytes -> unit
(** Overwrite the application state with a snapshot taken earlier from the
    same module (cluster fail-over, external state shipping, a panel's
    resync). The snapshot becomes the new checkpoint baseline, and the
    bytes themselves become the state's image ({!snapshot_bytes}), so
    the take that follows serializes nothing. The caller must not mutate
    them afterwards. *)
