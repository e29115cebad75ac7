(** The SDN application interface and its runtime instances.

    An application is a module with pure, explicit state: [handle] consumes
    one event and returns the new state plus the commands to issue. Keeping
    state explicit and closure-free is what makes the AppVisor checkpoints
    ({!snapshot}/{!restore}) possible — it is the CRIU-checkpoint analogue
    of this reproduction.

    Since PR 9 an application may also declare forwarding *intent*: an
    {!INTENT_APP} exports [policy], mapping its current state to a
    {!Policy.t} the runtime compiles to flow tables and keeps reconciled.
    Intent is what lets Crash-Pad *derive* Equivalence-Compromise
    candidates instead of relying only on hand-coded event transforms.
    Legacy {!APP} modules lift with {!app} (or the {!Of_legacy} functor)
    and keep compiling unchanged. *)

open Openflow

(** Read-only controller services available to an application while it
    handles an event (the northbound API the AppVisor stub proxies).

    Use the accessor functions below rather than reading the closure
    fields directly — the record layout is an implementation detail kept
    public only for construction (e.g. test harnesses building contexts
    by hand) and will eventually become private. *)
type context = {
  now : unit -> float;
  switches : unit -> Types.switch_id list;  (** Connected switches. *)
  switch_ports : Types.switch_id -> Types.port_no list;
  links : unit -> Event.link list;  (** Live inter-switch links, both directions. *)
  first_hop : Types.switch_id -> Types.switch_id -> Types.port_no option;
      (** Shortest-path first hop over [links]; see {!first_hop}. *)
  host_location : Types.mac -> (Types.switch_id * Types.port_no) option;
      (** Device-manager lookup: last learned attachment of a MAC. *)
}

val null_context : context
(** A context backed by nothing: time 0, no switches, ports, links, routes
    or hosts. Build others from it with [{ null_context with ... }], for
    apps that only need packet semantics and for tests. *)

(** {1 Context accessors} *)

val now : context -> float

val switches : context -> Types.switch_id list
(** The connected switches, ascending. The controller returns one shared
    list until a switch connects or disconnects, so calling this per event
    costs nothing. *)

val switch_ports : context -> Types.switch_id -> Types.port_no list

val links : context -> Event.link list
(** Both directions of every live inter-switch link, sorted ascending
    ([compare] on the record). Like {!switches}, one shared list until a
    link is recorded or forgotten. *)

val first_hop :
  context -> Types.switch_id -> Types.switch_id -> Types.port_no option
(** [first_hop ctx src dst] is the port of [src] through which a
    breadth-first search over {!links} first reaches [dst]: the first hop
    of a shortest path, counted in links. Among equally short paths the
    search tries [src]'s out-links, and every later switch's, in ascending
    (port, neighbour) order, and the first to reach [dst] wins. [None]
    when [dst] is unreachable from [src], when [src = dst], and when
    either switch has no live link.

    The controller runs one search per source, on the first call for that
    source after the links changed, and keeps its answers until they
    change again: a call costs two integer-keyed table lookups, a search
    O(links). *)

val host_location :
  context -> Types.mac -> (Types.switch_id * Types.port_no) option

module type APP = sig
  type state

  val name : string
  val subscriptions : Event.kind list

  val init : unit -> state

  val handle : context -> state -> Event.t -> state * Command.t list
  (** Process one event. May raise — that is a fail-stop application crash,
      and containing it is the whole point of LegoSDN. An event that
      changes nothing hands back the state it was given (see the
      instance-level {!val-handle}). *)
end

(** An application that additionally declares forwarding intent. *)
module type INTENT_APP = sig
  include APP

  val policy : context -> state -> Policy.t option
  (** The forwarding relation this state intends, or [None] when the app
      has nothing declarative to say (imperative commands only). Must be
      pure: the runtime calls it after every handled event to reconcile
      the compiled tables, and Crash-Pad calls it during recovery to
      derive verified-equivalent compromises. Reconciliation keys on the
      returned value: a policy structurally equal to the last installed
      one, over the same connected switches, is not recompiled (its
      compile would be the installed tables). May raise; a raise during
      recovery only disables derivation, it is not a new crash. *)
end

(** Lift a legacy application: same behavior, no declared intent. *)
module Of_legacy (A : APP) : INTENT_APP with type state = A.state

type app = (module INTENT_APP)
(** The packaged form every runtime entry point (sandboxes, runtimes,
    monolithic controller, cluster replicas, the fuzzer suite) accepts. *)

val app : (module APP) -> app
(** Package a legacy application ({!Of_legacy} under the hood). *)

val intent : (module INTENT_APP) -> app
(** Package an intent-declaring application. *)

val to_legacy : app -> (module APP)
(** Forget the intent hook — for legacy consumers that only need [APP],
    such as STS minimization. *)

exception Crash_with_partial of Command.t list
(** A fail-stop crash that happened after some commands were already issued
    to the controller: the carried prefix reached the network before the
    crash. This models FloodLight applications that call controller APIs
    mid-handler, the case NetLog's transactions exist for. *)

exception App_hang
(** The handler would never return. Runtimes translate this into heart-beat
    loss (AppVisor) or a wedged controller (monolithic). *)

(** A running application: a packaged module paired with its current
    state. *)
type instance

val instantiate : app -> instance

val name : instance -> string
val subscriptions : instance -> Event.kind list
val subscribes_to : instance -> Event.kind -> bool

val handle : instance -> context -> Event.t -> instance * Command.t list
(** Functional step: the returned instance carries the new state; the input
    instance is unchanged (so a runtime can keep the old one as a
    snapshot). When the app hands back a state physically equal to the
    one it was given, the input instance itself is returned, so [==] on
    instances says "no event changed the state since". Exceptions from the
    app propagate.

    Both uses rest on one purity contract: a state holds no mutable data,
    so no event can change a state in place. [Sandbox.revert_last]
    relies on it to go back to the previous instance, and
    [Sandbox.snapshot_bytes] to keep the image of an instance it has
    already serialized.

    A second contract makes that keeping pay: an event that changes
    nothing hands back the state it was given. A state holds only what
    the app's behaviour reads, and a handler returns its input where an
    update leaves it as it was ([Map.add] of a held binding, a set
    [equal] to the held one). As a check: whenever the returned
    instance's {!snapshot} equals the input's, the returned instance is
    the input. t_apps checks that for every bundled app on random event
    streams; nothing checks it at run time. Breaking it costs a
    serialization per checkpoint take, not correctness. *)

val policy_of : instance -> context -> Policy.t option
(** The instance's declared intent for its current state ([None] for
    legacy apps). Exceptions from the app propagate. *)

val reboot : instance -> instance
(** A fresh instance of the same module with [init] state — what a
    monolithic controller restart does to an app (all state lost). *)

val snapshot : instance -> bytes
(** Serialize the current state ([Marshal]; state must be closure-free). *)

val restore : instance -> bytes -> instance
(** The instance with state replaced by a previously taken snapshot. The
    snapshot must come from the same application module. *)
