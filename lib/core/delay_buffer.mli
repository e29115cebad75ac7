(** The prototype's stand-in for NetLog (§4.1): a buffer that delays an
    application's state-altering actions until its event handler has
    finished without failure, then flushes them.

    Compared with NetLog this is trivially atomic but has real costs the
    paper itself points out: rule installation latency grows by the full
    handler duration, reads (statistics) run against a network that does
    not yet contain the transaction's own writes, and nothing protects
    against byzantine rules that are only detectable after installation.
    Kept as the E9 ablation baseline; the runtime never runs on it. *)

type t

val create : Netsim.Net.t -> t

include Txn_engine.S with type t := t
