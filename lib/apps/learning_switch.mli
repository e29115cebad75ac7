(** The Learning Switch: learns source MAC locations per switch from
    packet-ins, installs exact-match forwarding rules once both ends are
    known, floods otherwise. The third ported application (§4.1) and the
    main stateful workhorse of the experiments: its MAC table is the state
    that checkpointing, restore and replay must preserve. *)

include Controller.App_sig.APP

val with_idle_timeout : int -> (module Controller.App_sig.APP)
(** A variant whose installed flows use the given idle timeout (default
    60 s); useful for timeout-sensitive NetLog tests. *)
