(** The replicated controller cluster: 2f+1 simulated controllers on one
    southbound network, replicating the runtime's event log through
    {!Raft} over seeded controller-to-controller channels.

    Core invariant: {e dispatched implies committed}. The leader polls
    the network, appends each translated event to the log, replicates,
    and only dispatches majority-committed entries. Fail-over restores
    the newest {!Legosdn.State_transfer} snapshot and re-dispatches the
    committed suffix with byte-identical xids (switch-side dedup absorbs
    the commands the dead leader already sent), so a leader killed
    mid-transaction is invisible to the network-facing oracles. *)

module Raft = Raft
(** The consensus core, re-exported: this module is the library's
    interface, so [Cluster.Raft] is the only path to it from outside. *)

type t

val create :
  ?config:Legosdn.Runtime.config ->
  ?sync_every:int ->
  ?peer_channel:Netsim.Channel.config ->
  ?on_runtime:(Legosdn.Runtime.t -> unit) ->
  seed:int ->
  Netsim.Net.t ->
  Controller.App_sig.app list ->
  t
(** [config.cluster] fixes the replica count and election-timeout range.
    [sync_every] (default 8) ships a state transfer every that many
    dispatched entries. [peer_channel] (default {!Netsim.Channel.perfect})
    is the fault model for controller-to-controller links — the fuzzer's
    runner keeps it perfect (southbound faults are the subject under
    test); [t_cluster] exercises lossy ones. [on_runtime] fires each time
    a leader builds its runtime (initial election and every fail-over) so
    the driver can re-attach taps and tracers. *)

val set_tracer : t -> Obs.Tracer.t -> unit
(** Cluster-level instants: [Election], [Replicate] (per appended batch),
    [State_transfer] (per ship), [Failover] (per takeover, with the
    kill-to-leader latency). Runtime-level tracing is attached per-leader
    through [on_runtime]. *)

val step : t -> unit
(** One duty cycle at the current virtual time: deliver due peer
    messages, run election timers (in deadline order), install any new
    leader, then the leader's I/O — poll, append, replicate, dispatch
    committed entries. *)

val tick : t -> unit
(** {!step} plus the periodic [Tick] event, which goes through the log
    like any other event so followers replay the exact sequence. *)

val arm_kill : t -> unit
(** Arm the leader kill: the next state-altering southbound send passes
    (half the transaction is then on the wire) and the leader dies —
    every later send is black-holed, no exception raised. *)

(** {1 Observation} *)

val nodes : t -> int
val node_alive : t -> int -> bool
val node_commit : t -> int -> int
val node_last_dispatched : t -> int -> int

val node_log : t -> int -> Raft.entry list
(** Node [i]'s full log, index 1 first — the qcheck replay property feeds
    a follower's committed prefix through fresh sandboxes. *)

val alive_leaders : t -> int list
(** Ids of live nodes currently in the [Leader] role. The fail-over
    oracle demands exactly one after healing. *)

val leader : t -> int option
(** The unique live leader, or under a transient multi-leader view the
    one with the highest term. *)

val leader_runtime : t -> Legosdn.Runtime.t option

val active_runtime : t -> Legosdn.Runtime.t option
(** The leader's runtime, falling back to the most recently installed
    one during a leaderless gap — what oracles and metrics should read. *)

val commit_index : t -> int
(** Highest commit index across live nodes. *)

val converged : t -> bool
(** Every live node agrees on term and commit index. *)

val kills : t -> int
val failovers : t -> int

val failover_latencies : t -> float list
(** Kill-to-new-leader virtual latencies, oldest first. *)

val elections : t -> int
(** Election rounds started, summed over nodes. *)

val replication_msgs : t -> int

val replication_bytes : t -> int
(** Peer-channel traffic priced at the AppVisor wire encoding of the
    replicated events plus fixed per-message headers — the numerator of
    the replication-overhead metric. *)

val transfer_bytes : t -> int
(** Cumulative state-transfer bytes (chunk-deduplicated). *)

val transfers_shipped : t -> int
