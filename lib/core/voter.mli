(** Sandboxed N-version voting (§3.4 + MORPH).

    The vote runs in the runtime, not inside one application: each
    variant runs in its {e own} {!Sandbox} with its own (delta)
    checkpoint store, so a crashing variant cannot take the others down.
    Every delivery's emitted command set is held in a NetLog transaction
    until the election, and only the majority command set is committed
    to the network, through the same screened commit as a solo app's
    output ({!Crashpad.commit_output}). A disagreeing or crashed
    replica is repaired from the majority's snapshot, shipped through a
    content-addressed {!Checkpoint.Chunk_store} manifest exactly like a
    cluster replica's state transfer.

    MORPH-style adaptation: after enough consecutive clean, unanimous
    elections the panel sheds to its primary variant alone (solo Crash-Pad
    dispatch, no voting overhead); the first failure in shed mode re-spins
    the full panel, re-synchronised from the recovered primary. *)

open Controller

(** {1 Elections}

    The pure voting rule. *)

val canonical : Command.t list -> Command.t list
(** The vote key: only network-effecting commands. [Log] commands carry
    diagnostics, not forwarding behaviour — two variants that differ only
    in logging emit the {e same} vote. *)

type 'v ballot = { voter : 'v; commands : Command.t list }
(** One live variant's emitted commands for the event, in arrival order. *)

type 'v election = {
  winners : 'v ballot list;
      (** The winning vote group, first-arrival order; never empty. *)
  losers : 'v ballot list;  (** Out-voted live ballots, first-arrival order. *)
  majority : bool;
      (** [2 * |winners| > |ballots|]: a strict majority of the live
          variants agree. Without one, the first-arrival group wins
          deterministically (ties broken by arrival order, never by state
          comparison). *)
}

val elect : 'v ballot list -> 'v election option
(** [None] iff no ballots were cast. Ballots are grouped by
    {!canonical} command set; the largest group wins, with ties broken in
    favour of the group whose first ballot arrived earliest. *)

(** {1 The sandboxed panel} *)

type config = {
  nv_replicas : int;  (** Panel size; 2f+1 masks f byzantine variants. *)
  nv_adaptive : bool;  (** MORPH shed/grow. *)
  nv_shed_after : int;
      (** Consecutive clean unanimous elections before shedding to the
          primary alone. *)
}

val default_config : config
(** 3 replicas, adaptive on, shed after 8 clean elections. *)

type t

val create :
  ?config:config ->
  make_ckpt:(unit -> Checkpoint.t) ->
  checkpoint_every:int ->
  (App_sig.app * bool) list ->
  t
(** One panel over the given variants (primary first). The [bool] marks a
    variant as {e re-syncable}: its state representation is that of the
    primary's module, so a majority snapshot may be restored into it.
    Variants wrapping a different state type (e.g. a fault-injection
    wrapper) must pass [false] — they are still voted and out-voted, but
    repaired only from their own checkpoints. Each variant gets its own
    sandbox and its own checkpoint store from [make_ckpt]. Raises
    [Invalid_argument] on an empty variant list or mismatched names. *)

val replicate :
  ?config:config ->
  make_ckpt:(unit -> Checkpoint.t) ->
  checkpoint_every:int ->
  App_sig.app ->
  t
(** [create] over [nv_replicas] copies of one module — independent states,
    identical code (data diversity rather than design diversity). *)

val name : t -> string
(** The application name (shared by every variant). *)

val config : t -> config
val sandboxes : t -> Sandbox.t list
(** Every variant's sandbox, primary first. *)

val primary : t -> Sandbox.t
val panel_active : t -> bool
(** [false] while shed to the primary alone. *)

val dispatch : Crashpad.config -> Crashpad.deps -> t -> Event.t -> unit
(** Deliver one event through the panel. Never raises on variant failure.

    Panel mode: deliver to every live variant (outputs held), elect, then
    screen and commit the winning command set through
    {!Crashpad.commit_output}, exactly as a solo app's output (resource
    limits, invariants, unreachable switches); confirm the agreeing
    variants, revert and re-sync the out-voted ones. The bundle fails —
    one counted failure, one compromise, one ticket — when {e every}
    subscribed variant dies on the event, or when the elected output
    fails the screen.

    Shed mode: solo Crash-Pad dispatch of the primary; a failure re-spins
    the panel when adaptive. *)
