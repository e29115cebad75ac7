(** Crash-Pad's failure detector (§3.3 "How to detect a bug?").

    Fail-stop failures surface as sandbox verdicts (the proxy's RPC fails);
    hangs surface as heart-beat loss; byzantine failures are found by
    running the application's proposed flow-mods through the network
    invariant checker before they are committed ({!Atomic_update.screen}). *)

open Controller

type failure =
  | Fail_stop of { detail : string; partial : Command.t list }
  | Hang
  | Byzantine of Invariants.Checker.violation list
  | Unreachable of { switch : Openflow.Types.switch_id }
      (** The reliable-delivery layer exhausted its retry budget against
          this switch: transactions touching it must abort, not
          half-commit. *)

(** Detection-latency model, in virtual seconds. *)
type timing = {
  rpc_timeout : float;
      (** A broken stub connection is noticed within this bound. *)
  heartbeat_interval : float;
  heartbeat_misses : int;  (** Missed beats before declaring a hang. *)
}

val default_timing : timing
(** 50 ms RPC timeout; 100 ms heart-beats, 3 misses. *)

val detection_delay : timing -> failure -> float
(** Virtual time between the failure and Crash-Pad learning about it:
    [rpc_timeout] for fail-stop, [interval * misses] for hangs, 0 for
    byzantine failures (caught synchronously at commit). *)

val of_verdict : Sandbox.verdict -> (Command.t list, failure) result
(** The commands of a successful delivery, or the failure it showed. *)

val describe : failure -> string
