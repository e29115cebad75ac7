(** A Raft-shaped consensus core for the simulated controller cluster.

    Pure message-passing: {!tick} and {!receive} return the messages to
    transmit and never deliver anything themselves — the cluster layer
    owns delivery through the seeded {!Netsim.Channel} fault model, so
    elections and replication are deterministic functions of (seeds,
    virtual clock). Crash-stop, no persistence, no membership changes:
    a killed controller never rejoins. *)

type entry = { term : int; event : Controller.Event.t; size : int }
(** [size] is what the caller says the entry weighs (the cluster passes
    its event's wire size). It is fixed at {!append} and carried
    unchanged to every replica. *)

type role = Follower | Candidate | Leader

type msg =
  | Request_vote of {
      term : int;
      candidate : int;
      last_index : int;
      last_term : int;
    }
  | Vote of { term : int; voter : int; granted : bool }
  | Append_entries of {
      term : int;
      leader : int;
      prev_index : int;
      prev_term : int;
      entries : entry list;
      commit : int;
    }
  | Append_reply of {
      term : int;
      follower : int;
      success : bool;
      match_index : int;
    }

type t

val create :
  id:int -> peers:int list -> seed:int -> lo:float -> hi:float -> now:float -> t
(** [peers] is the full membership (self included — it is filtered out).
    Election timeouts are drawn uniformly from [lo, hi) with an rng seeded
    by [(seed, id)], and redrawn on every timer reset. Raises
    [Invalid_argument] unless [0 < lo < hi]. *)

val id : t -> int
val role : t -> role
val term : t -> int

val commit_index : t -> int
(** Highest log index known committed (majority-replicated under the
    current-term commit rule). *)

val last_index : t -> int
val quorum : t -> int
val elections_started : t -> int

val deadline : t -> float
(** Virtual time at which this node's election timer expires. The cluster
    layer processes expirations in deadline order so simultaneous-looking
    timeouts (after a large clock jump) resolve deterministically. *)

val entry : t -> int -> entry
(** 1-based. Raises [Invalid_argument] outside [1, last_index]. *)

val append : t -> size:int -> Controller.Event.t -> int
(** Leader-only: append an entry under the current term; returns its
    index. Raises [Invalid_argument] on a non-leader. *)

val heartbeats : t -> (int * msg) list
(** Leader-only duty cycle: one [Append_entries] per peer from its
    next-index (empty entry list when the peer is up to date). Also the
    replication path — freshly appended entries travel in these. *)

val tick : t -> now:float -> (int * msg) list
(** Time-driven duties: a leader emits {!heartbeats}; a follower or
    candidate whose election timer has expired starts an election. *)

val receive : t -> now:float -> msg -> (int * msg) list
(** Handle one incoming message; returns the replies/broadcasts it
    provokes (including the initial heartbeat burst when a vote makes
    this node leader). *)
