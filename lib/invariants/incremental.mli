(** Incremental invariant checking for the Crash-Pad hot path.

    A full check freezes the whole network ({!Snapshot.of_net}) and traces
    every host pair from scratch — O(switches + pairs × path length) per
    transaction even when the app touched one switch. This engine keeps a
    persistent snapshot and a trace cache between checks and re-does only
    the work invalidated since the last call:

    - each switch carries a port and liveness counter
      ({!Netsim.Sw.t}[.cfg_gen]) and its table a generation
      ({!Netsim.Flow_table.generation}); the engine re-captures (and
      re-shares everything else of) a switch only when one of them moved;
    - each resident trace line is indexed under the switches it visited
      and its source host's attachment switch. Re-capturing a switch whose
      rules alone changed drops only the lines a changed pattern
      ({!Netsim.Flow_table.changed_since}) matches at one of their hops
      there; a port or liveness change, a clear, or more changes than the
      table's ring holds drops every line indexed under it. Dropped pairs
      become pending until they are traced again;
    - each line expires with its probe ({!Snapshot.probe}[.expires]): time
      moves no version, so the clock reaching a line's expiry drops it,
      and the whole-check memo carries the earliest expiry among the
      probes it read.

    Results are exactly those of the full {!Checker.check} on a fresh
    snapshot — the equivalence is exercised property-style in the test
    suite. *)

open Openflow

type t

(** Cache activity, exposed so the host (Runtime metrics, benches, tests)
    can count without this library depending on them. *)
type event =
  | Trace_hit  (** A resident trace line was used. *)
  | Trace_miss  (** A pair was traced, on the snapshot or an overlay. *)
  | Trace_invalidated
      (** A resident line was dropped: a change on a switch it depends on
          could alter it, or the clock reached its expiry. *)
  | Switch_recaptured of Types.switch_id
      (** A switch's state was re-frozen into the persistent snapshot. *)
  | Check_memoized
      (** A whole check was answered from the previous result: no switch
          had changed at all, so neither had the violation list. *)
  | Trace_evicted of { bytes : int }
      (** A cached trace was evicted to enforce the byte budget; [bytes]
          is the cache's resident size after the eviction (an up-to-date
          gauge value for the host). *)

type stats = {
  hits : int;
  misses : int;
  invalidations : int;  (** Lines dropped by a change or an expiry. *)
  recaptures : int;
  memoized_checks : int;
  evictions : int;  (** Lines dropped by the byte budget (LRU order). *)
}

val create :
  ?observer:(event -> unit) -> ?trace_cache_budget:int -> Netsim.Net.t -> t
(** An engine bound to [net]. The initial snapshot is taken eagerly so the
    first check starts warm on topology capture (traces still miss).

    [trace_cache_budget] bounds the trace cache's resident heap footprint
    in bytes (default: unbounded, the pre-budget behavior). When an insert
    pushes the cache over budget, least-recently-used lines are evicted
    until it fits again; the newest line is never evicted, so one
    oversized trace parks rather than thrashes. Eviction never changes
    results — an evicted pair becomes pending and is re-traced on next
    use — so the incremental-vs-full equivalence holds under any budget. *)

val check : ?invariants:Checker.invariant list -> t -> Checker.violation list
(** Equal to [Checker.check ~invariants (Snapshot.of_net net)] at the
    network's current instant, reusing every resident line and tracing
    the rest. When no switch was re-captured since the previous call with
    the same invariants, and the clock is below the earliest expiry of
    the probes that call read, the previous result is returned whole. *)

val check_flow_mods :
  ?invariants:Checker.invariant list ->
  t ->
  (Types.switch_id * Message.flow_mod) list ->
  Checker.violation list
(** Equal to [Checker.check_flow_mods] on a fresh snapshot, at a cost in
    proportion to what the mods touch rather than to the fabric.

    A flow-mod on switch [s] can change the lookup of a header arriving on
    a port at [s] only if its pattern matches that header and port. So a
    pair's trace can differ under the mods only if some hop of it, at a
    modified switch, carries a header a mod on that switch matches; every
    other pair has the same violations before and after, which the
    differential cancels. The screen:

    - refreshes: re-captures each dirty switch, which takes its flow
      table's current version in O(1) and walks no rule; drops the lines
      a change could alter, at O(hops × changed patterns) for each line
      through a switch whose rules alone changed; and, once the clock
      reaches the earliest expiry among the resident lines, drops the
      expired ones in one pass over the cache;
    - traces the pending pairs on the snapshot (on the first screen, when
      the invariants probe every host pair, every pair never traced);
    - tests the resident lines indexed under a modified switch, O(hops ×
      mods) each, keeping the pairs some mod matches;
    - evaluates the invariants for those pairs only, on the snapshot
      (resident probes) and on an overlay with the mods (one trace each),
      and [No_drop_all] on the modified switches' wildcarded rules only.

    A trace costs one table lookup per hop: an index probe per priority
    with exact rules plus a scan of the wildcarded ones
    ({!Netsim.Flow_table.Version.lookup}). The overlay is
    {!Netsim.Flow_table.Version.apply} on the captured versions: O(log
    rules) per add, sharing the rest of each table. Storing a traced line
    costs O(hops), plus one [Obj.reachable_words] of the line when a byte
    budget is set.

    Hypothetical results never enter the persistent cache. *)

val refresh : t -> unit
(** Bring the persistent snapshot up to date with the network without
    checking anything (both [check] functions do this implicitly). *)

val snapshot : t -> Snapshot.t
(** The engine's current persistent snapshot (as of the last refresh). *)

val stats : t -> stats
(** Cumulative cache activity since [create]. *)

val cache_bytes : t -> int
(** Resident trace-cache footprint in bytes (what the byte budget bounds).
    Under a budget every stored line is measured once
    ([Obj.reachable_words]) and this is O(1); on an unbounded cache no
    line is measured when stored, and this measures every resident line,
    O(resident heap). *)

val cache_lines : t -> int
(** Number of cached (src, dst) trace lines currently resident. *)
