(** Screened atomic updates (§3.4, after Katta et al. [19]).

    The one route from a command set to the network: an app delivery, a
    panel's elected output, an intent install and an operator update are
    all screened, then applied in one transaction, so their effects are
    all-or-nothing — resolving the ambiguity the paper describes ("when an
    application crashes after installing a few rules, it is not clear
    whether the few rules issued were part of a larger set").

    The screens run before the first switch is touched: resource limits
    (only given a {!budget}), then invariants on the flow-mods alone
    (none, no checker call and no [Detection] span), then unreachable
    switches. *)

open Openflow
open Controller

type refusal =
  | Over_limits of Resources.breach list
  | Invariant_broken of Invariants.Checker.violation list
      (** New violations only: damage already in the network is not
          pinned on the update. *)
  | Unreachable of Types.switch_id
  | Switch_rejected of Types.switch_id * string
      (** A switch answered with an error (only under [Reject_errors]). *)

type outcome = Committed | Rolled_back of refusal

type budget = { limits : Resources.limits; state_bytes : unit -> int }
(** [state_bytes] is forced only when [limits] caps the state size. *)

val screen :
  ?tracer:Obs.Tracer.t ->
  ?budget:budget ->
  ?invariants:Invariants.Checker.invariant list ->
  ?unreachable:(Types.switch_id -> bool) ->
  checker:Invariants.Incremental.t ->
  Command.t list ->
  refusal option
(** The screens alone, committing nothing. [invariants] defaults to
    {!Invariants.Checker.default}; by default every switch is reachable. *)

(** Which transaction the commands go into; this decides which closed
    transaction, if any, a refusal hands NetLog's close hook. *)
type txn =
  | Opened of Netlog.txn
      (** Opened by the caller before the commands existed (an app
          delivery). A refusal aborts it: one aborted, empty entry. *)
  | Deferred
      (** Opened only once the screens pass: a refusal leaves no entry. *)

type replies =
  | Route of (Types.switch_id -> Message.t list -> unit)
      (** Hand each command's replies over; an error never aborts. *)
  | Reject_errors  (** The first error reply aborts the whole update. *)

val commit :
  ?tracer:Obs.Tracer.t ->
  ?budget:budget ->
  ?invariants:Invariants.Checker.invariant list ->
  ?unreachable:(Types.switch_id -> bool) ->
  checker:Invariants.Incremental.t ->
  netlog:Netlog.t ->
  replies:replies ->
  app:string ->
  txn ->
  Command.t list ->
  outcome
(** {!screen}, then apply and commit. On [Rolled_back] nothing is live:
    the network is byte-identical to before. [tracer] records a [Txn_commit]
    span after the screen's [Detection] span. *)

val apply :
  ?tracer:Obs.Tracer.t ->
  ?invariants:Invariants.Checker.invariant list ->
  checker:Invariants.Incremental.t ->
  netlog:Netlog.t ->
  app:string ->
  (Types.switch_id * Message.flow_mod) list ->
  outcome
(** An operator update: {!commit} with [Reject_errors] into a [Deferred]
    transaction. *)

val describe : outcome -> string
