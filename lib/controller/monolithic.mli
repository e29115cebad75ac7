(** The fate-sharing baseline: a FloodLight-style monolithic controller.

    Applications run in the controller's own "process"; any exception an
    application raises takes the whole controller down — every other app
    included — and a restart loses all application state. This is the
    architecture LegoSDN exists to replace (paper Figure 1, left side). *)

type crash_info = {
  culprit : string;  (** Name of the app whose failure killed the stack. *)
  event : Event.t option;  (** The event being processed, if any. *)
  detail : string;  (** Exception text or "hang". *)
  at : float;  (** Virtual time of death. *)
}

type status = Running | Crashed of crash_info

type t

val create : Netsim.Net.t -> App_sig.app list -> t
(** Build the controller over a live network with the given applications
    (dispatch follows registration order). *)

val status : t -> status
val apps : t -> App_sig.instance list
val services : t -> Services.t
val net : t -> Netsim.Net.t

val step : t -> unit
(** Drain southbound notifications and dispatch the resulting events to
    subscribed applications, executing their commands as they return. An
    application failure transitions the controller to [Crashed]; a crashed
    controller ignores [step] entirely (switches keep forwarding with the
    rules they have, but no new events are processed). *)

val dispatch_event : t -> Event.t -> unit
(** Push one synthetic event through dispatch (used by ticks, tests and
    latency benchmarks). Same crash semantics as {!step}. *)

val tick : t -> unit
(** Deliver a [Tick] carrying the current virtual time. *)

val restart : t -> unit
(** Operator reboot: every application is re-instantiated from [init]
    (state lost — the paper's controller-upgrade pain), services are
    rebuilt, and the controller re-handshakes with every reachable
    switch. *)

val events_processed : t -> int
val commands_executed : t -> int

val events_shed : t -> int
(** Notifications dropped by the broadcast-storm guard: when a step's event
    budget is exhausted (e.g. a flooding loop on a cyclic topology), excess
    switch notifications are shed, as an overloaded controller connection
    would shed them. *)

val storm_guard_events : int
(** One {!step}'s event budget (2048). [Legosdn.Runtime.step] and the
    controller cluster spend the same budget, so every architecture
    processes the same event stream. *)
