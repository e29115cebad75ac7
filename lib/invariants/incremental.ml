open Openflow
module Topology = Netsim.Topology
module Flow_table = Netsim.Flow_table
module Sw = Netsim.Sw
module Net = Netsim.Net
module Clock = Netsim.Clock

type event =
  | Trace_hit
  | Trace_miss
  | Trace_invalidated
  | Switch_recaptured of Types.switch_id
  | Check_memoized
  | Trace_evicted of { bytes : int }

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  recaptures : int;
  memoized_checks : int;
  evictions : int;
}

(* A resident line is valid by construction: [refresh] drops every line a
   change or a timeout could alter. A line is indexed under the switches
   its trace visited plus its source host's attachment switch (whose port
   decides whether the trace starts at all): a trace is built hop by hop
   from the state of exactly those switches, so while no hop's lookup
   changes and none of their ports does, re-tracing would retread the same
   hops. *)
type line = {
  probe : Snapshot.probe;
  deps : Types.switch_id list;  (* sorted, unique *)
  words : int;
      (* heap footprint of the line under a byte budget; 0 without one *)
  mutable tick : int;  (* last-use stamp; smallest tick is evicted first *)
}

type pair = Topology.host * Topology.host

(* A switch as the snapshot last captured it: its port and liveness
   counter and its table's generation. *)
type seen = { mutable cfg : int; mutable gen : int }

type memo = {
  invs : Checker.invariant list;
  result : Checker.violation list;
  expires : float;  (* the earliest expiry among the probes it read *)
}

type t = {
  net : Net.t;
  mutable snap : Snapshot.t;
  seen : (Types.switch_id, seen) Hashtbl.t;
  cache : (pair, line) Hashtbl.t;
  by_switch : (Types.switch_id, (pair, unit) Hashtbl.t) Hashtbl.t;
      (* reverse index: the resident lines that depend on each switch *)
  pending : (pair, unit) Hashtbl.t;
      (* pairs whose line was dropped or evicted and not yet re-traced *)
  mutable cold : bool;
      (* some host pair was never traced: until a pass over every host
         pair, "resident or pending" does not cover them *)
  hosts : (Topology.host, unit) Hashtbl.t;
      (* the topology's hosts: listed pairs may name others *)
  budget_words : int option;
      (* trace-cache byte budget expressed in words; None = unbounded *)
  mutable cache_words : int;
      (* summed [words] of all resident lines: 0 on an unbounded cache *)
  mutable clock : int;  (* monotonic use counter feeding [tick] *)
  mutable next_expiry : float;
      (* at or before the expiry of every resident line *)
  mutable memo_check : memo option;
      (* last full-check result; valid until any switch is re-captured or
         its own expiry *)
  observer : event -> unit;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable recaptures : int;
  mutable memoized : int;
  mutable evictions : int;
}

let bytes_per_word = Sys.word_size / 8

let create ?(observer = fun _ -> ()) ?trace_cache_budget net =
  let t =
    {
      net;
      snap = Snapshot.of_net net;
      seen = Hashtbl.create 32;
      cache = Hashtbl.create 256;
      by_switch = Hashtbl.create 32;
      pending = Hashtbl.create 64;
      cold = true;
      hosts = Hashtbl.create 64;
      budget_words =
        Option.map
          (fun b -> max 1 (b / bytes_per_word))
          trace_cache_budget;
      cache_words = 0;
      clock = 0;
      next_expiry = infinity;
      memo_check = None;
      observer;
      hits = 0;
      misses = 0;
      invalidations = 0;
      recaptures = 0;
      memoized = 0;
      evictions = 0;
    }
  in
  List.iter
    (fun sid ->
      let sw = Net.switch net sid in
      let gen = Flow_table.generation sw.Sw.table in
      (* The first ask makes the table's ring: from here on its changes
         are recorded. *)
      ignore (Flow_table.changed_since sw.Sw.table ~gen);
      Hashtbl.replace t.seen sid { cfg = sw.Sw.cfg_gen; gen })
    (Topology.switches (Net.topology net));
  List.iter (fun h -> Hashtbl.replace t.hosts h ()) (Topology.hosts (Net.topology net));
  t

(* +4 ≈ the line record itself (header + 3 boxed-or-immediate fields
   beyond the measured payload tuple); the payload tuple's own 3 words
   stand in for it. Exactness is irrelevant — the budget only has to track
   growth faithfully. *)
let line_words probe deps = Obj.reachable_words (Obj.repr (probe, deps)) + 4

(* Only a budget reads a line's size on every store, so an unbounded cache
   measures its lines here, when asked. A line never changes once stored,
   so both ways give the same figure. *)
let cache_bytes t =
  let words =
    match t.budget_words with
    | Some _ -> t.cache_words
    | None ->
        Hashtbl.fold
          (fun _ line acc -> acc + line_words line.probe line.deps)
          t.cache 0
  in
  words * bytes_per_word

let cache_lines t = Hashtbl.length t.cache

let dependents t sid =
  match Hashtbl.find_opt t.by_switch sid with
  | Some keys -> keys
  | None ->
      let keys = Hashtbl.create 16 in
      Hashtbl.replace t.by_switch sid keys;
      keys

(* Take a line out of the cache and the index; its pair is pending until
   it is traced again. *)
let drop_line t key line =
  Hashtbl.remove t.cache key;
  t.cache_words <- t.cache_words - line.words;
  List.iter (fun sid -> Hashtbl.remove (dependents t sid) key) line.deps;
  Hashtbl.replace t.pending key ()

let invalidate t key line =
  drop_line t key line;
  t.invalidations <- t.invalidations + 1;
  t.observer Trace_invalidated

(* Drop the resident lines indexed under [sid] that [stale] picks. *)
let invalidate_under t sid stale =
  let keys = Hashtbl.fold (fun k () acc -> k :: acc) (dependents t sid) [] in
  List.iter
    (fun key ->
      let line = Hashtbl.find t.cache key in
      if stale line then invalidate t key line)
    keys

(* A change to switch [sid]'s rules can alter the lookup of header [pkt]
   arriving on [in_port] there only if the change's pattern matches that
   header: an add or modify writes rules with that pattern, and a delete
   removes only rules it subsumes, so a rule set that differs from the old
   one only in rules not matching [pkt] answers the lookup the same way.
   (An expiry removes only dead rules, which answer no lookup, so it has no
   pattern.) A trace none of whose hops such a pattern matches is
   therefore identical under the change. [patterns_at] maps a changed
   switch to its changes' patterns; the screen's hypothetical flow-mods
   and a re-capture's recorded changes both ask this. *)
let hop_matched patterns_at probe =
  List.exists
    (fun (sid, in_port, pkt) ->
      match Hashtbl.find_opt patterns_at sid with
      | None -> false
      | Some patterns ->
          List.exists (fun p -> Ofp_match.matches p ~in_port pkt) patterns)
    probe.Snapshot.path

(* What changed on switch [sid] since the snapshot last captured it:
   [None] if nothing; otherwise [Some (sid, Some patterns)] when its rules
   alone changed, by the table's ring, and [Some (sid, None)] when the
   change may alter any line through it: a port or liveness change, a
   clear, or more changes than the ring holds. *)
let change t sid =
  let sw = Net.switch t.net sid in
  let seen = Hashtbl.find t.seen sid in
  let gen = Flow_table.generation sw.Sw.table in
  if seen.cfg = sw.Sw.cfg_gen && seen.gen = gen then None
  else begin
    let patterns =
      if seen.cfg = sw.Sw.cfg_gen then
        Flow_table.changed_since sw.Sw.table ~gen:seen.gen
      else None
    in
    seen.cfg <- sw.Sw.cfg_gen;
    seen.gen <- gen;
    Some (sid, patterns)
  end

(* Drop every resident line whose expiry the clock has reached and raise
   [next_expiry] to the earliest one left; below it there is nothing to
   drop. *)
let drop_expired t ~now =
  if now >= t.next_expiry then begin
    let expired =
      Hashtbl.fold
        (fun key line acc ->
          if line.probe.Snapshot.expires <= now then (key, line) :: acc
          else acc)
        t.cache []
    in
    List.iter (fun (key, line) -> invalidate t key line) expired;
    t.next_expiry <-
      Hashtbl.fold
        (fun _ line acc -> Float.min acc line.probe.Snapshot.expires)
        t.cache infinity
  end

(* A switch is dirty when its port and liveness counter or its table's
   generation moved. It is re-captured into the persistent snapshot; the
   lines through it that a changed pattern matches at one of their hops
   there are dropped, or every line through it when its ports, its
   liveness or more than the ring changed, or its table was cleared. A
   line with an empty path (its host link was down) passes no table. Time
   alone dirties no switch: a line goes when the clock reaches its probe's
   expiry. *)
let refresh t =
  let now = Clock.now (Net.clock t.net) in
  let dirty = List.filter_map (change t) (Topology.switches (Net.topology t.net)) in
  (* Even with nothing dirty the snapshot's clock must advance: the lines a
     timeout between the two instants could alter are dropped below. *)
  t.snap <- Snapshot.refresh t.snap t.net ~dirty:(List.map fst dirty);
  if dirty <> [] then begin
    t.memo_check <- None;
    let changed = Hashtbl.create 4 in
    List.iter
      (fun (sid, patterns) ->
        t.recaptures <- t.recaptures + 1;
        t.observer (Switch_recaptured sid);
        match patterns with
        | None -> invalidate_under t sid (fun _ -> true)
        | Some patterns -> Hashtbl.replace changed sid patterns)
      dirty;
    Hashtbl.iter
      (fun sid _ ->
        invalidate_under t sid (fun line -> hop_matched changed line.probe))
      changed
  end;
  drop_expired t ~now

let snapshot t = t.snap

let deps_of t probe src =
  let visited = List.map (fun (sid, _, _) -> sid) probe.Snapshot.path in
  let sids =
    match Topology.host_attachment (Snapshot.topology t.snap) src with
    | Some (sid, _) -> sid :: visited
    | None -> visited
  in
  List.sort_uniq Int.compare sids

let touch_line t line =
  t.clock <- t.clock + 1;
  line.tick <- t.clock

(* Evict least-recently-used lines until the budget holds again, never
   touching [keep] (the line just inserted): a single oversized line parks
   in the cache rather than thrashing. The victim scan is O(lines), but a
   budget small enough to evict also keeps the resident line count small,
   so the scan stays cheap exactly when it runs. Eviction is
   correctness-preserving by construction — the pair becomes pending and
   is re-traced from current state on its next use. *)
let enforce_budget t ~keep =
  match t.budget_words with
  | None -> ()
  | Some budget ->
      let continue = ref (t.cache_words > budget && Hashtbl.length t.cache > 1) in
      while !continue do
        let victim = ref None in
        Hashtbl.iter
          (fun k line ->
            if k <> keep then
              match !victim with
              | Some (_, best) when best.tick <= line.tick -> ()
              | _ -> victim := Some (k, line))
          t.cache;
        (match !victim with
        | None -> continue := false
        | Some (k, line) ->
            drop_line t k line;
            t.evictions <- t.evictions + 1;
            t.observer (Trace_evicted { bytes = cache_bytes t }));
        if t.cache_words <= budget || Hashtbl.length t.cache <= 1 then
          continue := false
      done

(* Only ever called for a pair with no resident line. *)
let store_line t key probe deps =
  let words =
    match t.budget_words with
    | Some _ -> line_words probe deps
    | None -> 0
  in
  let line = { probe; deps; words; tick = 0 } in
  touch_line t line;
  t.next_expiry <- Float.min t.next_expiry probe.Snapshot.expires;
  Hashtbl.replace t.cache key line;
  Hashtbl.remove t.pending key;
  List.iter (fun sid -> Hashtbl.replace (dependents t sid) key ()) deps;
  t.cache_words <- t.cache_words + words;
  enforce_budget t ~keep:key

let hit t line =
  t.hits <- t.hits + 1;
  touch_line t line;
  t.observer Trace_hit

(* Trace a pair on the persistent snapshot and make its line resident. *)
let trace_miss t ((src, dst) as key) =
  t.misses <- t.misses + 1;
  t.observer Trace_miss;
  let probe = Snapshot.trace t.snap src (Checker.canonical_packet src dst) in
  store_line t key probe (deps_of t probe src);
  probe

let trace_cached t key =
  match Hashtbl.find_opt t.cache key with
  | Some line ->
      hit t line;
      line.probe
  | None -> trace_miss t key

let probes_all_pairs invs =
  List.exists
    (function Checker.Loop_freedom | Checker.Black_hole_freedom -> true | _ -> false)
    invs

(* The steady-state fast path: when refresh re-captured nothing, every
   switch holds the rules and ports of the previous check, and below the
   earliest expiry among the probes that check read every lookup they made
   still answers the same; so the previous violation list — not just the
   traces behind it — is still the answer. The memo keeps that expiry
   itself: a line the budget evicts takes its own with it. A clean
   back-to-back check is then one version scan over the switches. Several
   invariants request the same pair, so live checks also wrap the
   persistent cache in a per-call memo: each pair is looked up once per
   check, not once per invariant. *)
let check ?invariants t =
  refresh t;
  let invs = Option.value ~default:Checker.default invariants in
  match t.memo_check with
  | Some m when m.invs = invs && Clock.now (Net.clock t.net) < m.expires ->
      t.memoized <- t.memoized + 1;
      t.observer Check_memoized;
      m.result
  | _ ->
      let memo = Hashtbl.create 64 in
      let trace src dst =
        match Hashtbl.find_opt memo (src, dst) with
        | Some probe -> probe
        | None ->
            let probe = trace_cached t (src, dst) in
            Hashtbl.replace memo (src, dst) probe;
            probe
      in
      let result = Checker.check_with ~invariants:invs ~trace t.snap in
      if probes_all_pairs invs then t.cold <- false;
      let expires =
        Hashtbl.fold
          (fun _ (probe : Snapshot.probe) acc -> Float.min acc probe.expires)
          memo infinity
      in
      t.memo_check <- Some { invs; result; expires };
      result

(* Only the affected pairs — those whose trace on the snapshot has a hop
   some mod matches — can differ between the snapshot and the overlay;
   every other pair contributes the same violations to both sides, which
   [diff_new] then cancels. So both sides are evaluated on the affected
   pairs (and [No_drop_all] on the modified switches) only. The candidates
   are the pending pairs, which are traced first, and the resident lines
   indexed under a modified switch; every other resident line visits no
   modified switch. Probes are kept per call, so a line the budget evicts
   mid-screen still has its probe here. *)
let check_flow_mods ?invariants t mods =
  refresh t;
  let invs = Option.value ~default:Checker.default invariants in
  let mods_at = Hashtbl.create 4 in
  List.iter
    (fun (sid, (fm : Message.flow_mod)) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt mods_at sid) in
      Hashtbl.replace mods_at sid (fm.pattern :: prev))
    mods;
  let modified = List.sort_uniq Int.compare (List.map fst mods) in
  (* pair -> its probe on the snapshot if affected, None if not *)
  let decided = Hashtbl.create 64 in
  let consider key =
    match Hashtbl.find_opt decided key with
    | Some affected -> affected
    | None ->
        let resident = Hashtbl.find_opt t.cache key in
        let probe =
          match resident with
          | Some line -> line.probe
          | None -> trace_miss t key
        in
        let affected = if hop_matched mods_at probe then Some probe else None in
        (match (resident, affected) with
        | Some line, Some _ -> hit t line
        | _ -> ());
        Hashtbl.replace decided key affected;
        affected
  in
  let candidates =
    List.concat_map
      (fun sid -> Hashtbl.fold (fun k () acc -> k :: acc) (dependents t sid) [])
      modified
    @ Hashtbl.fold (fun k () acc -> k :: acc) t.pending []
  in
  List.iter (fun key -> ignore (consider key)) candidates;
  if t.cold && probes_all_pairs invs then begin
    List.iter
      (fun key -> ignore (consider key))
      (Checker.host_pairs (Snapshot.topology t.snap));
    t.cold <- false
  end;
  (* A listed pair that was neither resident nor pending was never traced:
     [consider] traces it on first use. Any other pair not yet decided is
     a resident line that visits no modified switch. *)
  let listed src dst =
    let key = (src, dst) in
    match Hashtbl.find_opt decided key with
    | Some affected -> Option.is_some affected
    | None -> (not (Hashtbl.mem t.cache key)) && Option.is_some (consider key)
  in
  let is_host_pair (src, dst) =
    src <> dst && Hashtbl.mem t.hosts src && Hashtbl.mem t.hosts dst
  in
  let pairs =
    Hashtbl.fold
      (fun key affected acc ->
        if Option.is_some affected && is_host_pair key then key :: acc else acc)
      decided []
    |> List.sort compare
  in
  let scope = { Checker.pairs; listed; switches = modified } in
  let before =
    Checker.check_with ~invariants:invs ~scope
      ~trace:(fun src dst -> Option.get (Hashtbl.find decided (src, dst)))
      t.snap
  in
  let overlay = Snapshot.apply_flow_mods t.snap mods in
  let after_memo = Hashtbl.create 16 in
  let trace_after src dst =
    match Hashtbl.find_opt after_memo (src, dst) with
    | Some probe -> probe
    | None ->
        t.misses <- t.misses + 1;
        t.observer Trace_miss;
        let probe =
          Snapshot.trace overlay src (Checker.canonical_packet src dst)
        in
        Hashtbl.replace after_memo (src, dst) probe;
        probe
  in
  let after = Checker.check_with ~invariants:invs ~scope ~trace:trace_after overlay in
  Checker.diff_new ~before after

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    invalidations = t.invalidations;
    recaptures = t.recaptures;
    memoized_checks = t.memoized;
    evictions = t.evictions;
  }

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "trace cache: %d hits, %d misses (%d after invalidation); %d switch \
     re-captures; %d whole-check memo hits; %d evictions"
    s.hits s.misses s.invalidations s.recaptures s.memoized_checks s.evictions
