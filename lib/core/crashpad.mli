(** Crash-Pad: the fault-tolerance layer built on AppVisor and NetLog
    (§3.3).

    For every (application, event) delivery, Crash-Pad:
    + checkpoints the application if one is due,
    + opens a transaction,
    + delivers the event through the sandbox,
    + screens successful output for byzantine failures and resource
      breaches before committing,
    + and on any failure: aborts (rolling the network back), restores the
      application from its checkpoint, replays the journal, applies the
      operator's compromise policy to the offending event (ignore /
      transform-and-replay / leave down), and files a problem ticket. *)

open Openflow
open Controller

type config = {
  policy : Recovery_policy.t;
  invariants : Invariants.Checker.invariant list;
      (** Checked on every transaction's proposed flow-mods. *)
  timing : Detector.timing;
  limits : Resources.limits;
  quarantine : Quarantine.t option;
      (** When set, repeatedly-failing event signatures are blacklisted and
          filtered before delivery (§5 multi-transaction failures). *)
}

val default_config : config
(** Equivalence-compromise policy, default invariants, default timing, no
    resource limits, no quarantine. *)

(** What Crash-Pad needs from its host runtime. *)
type deps = {
  netlog : Netlog.t;
      (** Every delivery, elected output and intent install runs in one
          of its transactions. *)
  incremental : Invariants.Incremental.t;
      (** The runtime's incremental invariant checker: every commit's
          flow-mods are screened through it ({!Atomic_update.screen}). *)
  context : unit -> App_sig.context;
  links_of : Types.switch_id -> Event.link list;
  metrics : Metrics.t;
  tickets : Ticket.store;
  now : unit -> float;
  enqueue_reply : string -> Event.t -> unit;
      (** Queue a synchronous-reply event (statistics) for later dispatch
          to the named application. *)
  unreachable : Types.switch_id -> bool;
      (** Is this switch's control channel currently given up on? A
          transaction touching such a switch aborts cleanly before any
          command reaches the network. *)
  tracer : Obs.Tracer.t;
      (** Records per-stage spans (app delivery, detection, commit,
          recovery). Pass {!Obs.Tracer.noop} to disable. *)
  batched_checkpoints : bool;
      (** Skip the per-event {!Sandbox.prepare}: the caller checkpoints
          every sandbox at batch entry instead (batched dispatch's
          amortization). *)
}

(** {1 Installed intent} *)

type intent_record
(** What the network holds for one application's declared intent: for
    each switch of the last install, its share of the policy
    ({!Policy.restrict}) and the table compiled from that share; and the
    policy and switch list they were all taken from, when the record is
    exactly that compile. A reconcile recompiles, diffs and checks only
    the switches whose share differs from the recorded one or has no
    entry. One record per application: a panel drives one network, so
    its variants share one.
    It mirrors switch state, not app state, so reboots, restores and
    re-syncs of the app leave it alone. Only intent reconciliation
    ({!reconcile_intent}, and the policy-derived compromise of
    {!resolve}) reads or writes it. *)

val new_intent_record : unit -> intent_record
(** Nothing installed yet. *)

val intent_tables : intent_record -> Policy.table list
(** The compiled intent as last installed ([[]] initially). *)

val forget_switch : intent_record -> Types.switch_id -> unit
(** The switch went down and took its flow table with it: drop its share
    and its rows, so the next reconciliation recompiles its table and
    re-installs it in full when it returns. The pruned record is no
    longer a compile, so that reconciliation runs even if policy and
    switches look unchanged. *)

(** {1 Pipeline pieces}

    {!Voter.dispatch} delivers every event through these (a solo
    application is a panel of one), so a panel's elected output goes
    through exactly the screened commit, recovery and containment a solo
    app's output does. *)

val attempt : config -> deps -> intent_record -> Sandbox.t -> Event.t ->
  (unit, Detector.failure * int) result
(** Deliver one event inside a fresh transaction: prepare (unless
    [batched_checkpoints]), begin, deliver, {!commit_output}, confirm,
    reconcile intent against the app's record. [Error (failure,
    rolled_back)] means the transaction aborted, NetLog ran [rolled_back]
    undos, and the sandbox state has already been repaired. *)

val deliver :
  deps -> Sandbox.t -> Event.t -> (Command.t list, Detector.failure) result
(** Deliver one event under an [App_handle] span. *)

val commit_output :
  config -> deps -> txn:Netlog.txn -> event:Event.t ->
  revert:Sandbox.t list -> contain:Sandbox.t list -> Sandbox.t ->
  Command.t list -> [ `Committed | `Contained | `Failed of Detector.failure ]
(** {!Atomic_update.commit} of the owner's output into [txn], opened
    before the delivery: limits sized by the owner's state, then
    invariants, then unreachable switches. Stats and flow-removed replies
    go back to the owner. On a refusal [txn] aborts and [revert] drops the
    delivery; a resource breach files a [Blocked] ticket and restarts
    [contain] with fresh state ([`Contained]); any other refusal is
    counted ([`Failed]). *)

val recover :
  config -> deps -> app:string -> Detector.failure -> Sandbox.t list -> unit
(** Count the failure, charge its detection delay to [app], and restore
    and replay each sandbox from its checkpoint. *)

val resolve :
  config -> deps -> intent_record -> Sandbox.t -> Event.t ->
  Detector.failure -> rolled_back:int -> unit
(** Note the failure for quarantine, apply the operator's compromise
    policy and file the problem ticket (exactly one per call). An
    Equivalence compromise first recompiles the declared intent and
    installs its diff against the app's record. *)

val quarantine_blocked : config -> deps -> Sandbox.t -> Event.t -> bool
(** Is this delivery suppressed by the quarantine store? Counts the
    suppression when it is. *)

val reconcile_intent : config -> deps -> intent_record -> Sandbox.t -> unit
(** After a healthy commit: recompile the sandbox's declared policy
    ({!App_sig.INTENT_APP}) and install the verified diff against the
    app's record, so hardware tracks intent continuously (intent
    reconciliation).

    Declared policies also drive the Equivalence compromise ({!resolve}):
    it first tries a policy-derived candidate rule-set — recompile the
    intent from the recovered state, verify the compiled tables against
    the policy's own denotation and the configured invariants, and
    install the flow-mod diff instead of replaying transformed events. A
    candidate failing either check is counted as rejected and the
    hand-coded event transformations are tried next. Apps that declare
    no policy get neither. *)
