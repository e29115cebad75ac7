(** Sandboxed N-version voting (§3.4 + MORPH), and the runtime's one
    dispatch unit: every application is a [Voter.t], a solo application
    being a panel of one.

    The vote runs in the runtime, not inside one application: each
    variant runs in its {e own} {!Sandbox} with its own (delta)
    checkpoint store, so a crashing variant cannot take the others down.
    Every delivery's emitted command set is held in a NetLog transaction
    until the election, and only the majority command set is committed
    to the network, through the same screened commit as a solo app's
    output ({!Crashpad.commit_output}). A disagreeing or crashed
    replica is repaired from the majority's snapshot: the donor's
    snapshot bytes are restored into it directly. The unit keeps one
    installed-intent record ({!intent_record}) for all its variants,
    because they drive one network.

    MORPH-style adaptation: after enough consecutive clean, unanimous
    elections the panel sheds to its primary variant alone (solo Crash-Pad
    dispatch, no voting overhead); the first failure in shed mode re-spins
    the full panel, re-synchronised from the recovered primary. A panel
    of one is always shed and never re-spins. *)

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
  ?config:config -> make_ckpt:(unit -> Checkpoint.t) ->
  (App_sig.app * bool) list -> t
(** One unit over the given variants (primary first). The [bool] marks a
    variant as {e re-syncable}: its state representation is that of the
    primary's module, so a majority snapshot may be restored into it.
    Variants wrapping a different state type (e.g. a fault-injection
    wrapper) must pass [false] — they are still voted and out-voted, but
    repaired only from their own checkpoints. Each variant gets its own
    sandbox and its own checkpoint store from [make_ckpt]. A single
    variant is a solo application: it starts shed and, with nothing to
    grow back to, never votes. Raises [Invalid_argument] on an empty
    variant list or mismatched names. *)

val name : t -> string
(** The application name (shared by every variant). *)

val config : t -> config
val sandboxes : t -> Sandbox.t list
(** Every variant's sandbox, primary first. *)

val primary : t -> Sandbox.t
val panel_active : t -> bool
(** [false] while shed to the primary alone, and always for one variant. *)

val intent_record : t -> Crashpad.intent_record
(** What the network holds for the application's declared intent. The
    variants share it: whichever variant's output is committed, its
    intent is reconciled against this one record. *)

val dispatch : Crashpad.config -> Crashpad.deps -> t -> Event.t -> unit
(** Deliver one event through the unit, if its primary is alive,
    subscribes to the event and is not quarantined for it. Never raises
    on application failure — that is the contract.

    Panel mode: deliver to every live variant (outputs held), elect, then
    screen and commit the winning command set through
    {!Crashpad.commit_output}, exactly as a solo app's output (resource
    limits, invariants, unreachable switches); confirm the agreeing
    variants, revert and re-sync the out-voted ones. The bundle fails —
    one counted failure, one compromise, one ticket — when {e every}
    subscribed variant dies on the event, or when the elected output
    fails the screen.

    Shed mode: solo Crash-Pad dispatch of the primary
    ({!Crashpad.attempt}, then {!Crashpad.resolve} on failure); a failure
    re-spins a panel of two or more when adaptive. *)
