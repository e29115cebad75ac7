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

(* A resident line is valid by construction: [refresh] drops, at once,
   every line indexed under a switch it re-captures. A line is indexed
   under the switches its trace visited plus its source host's attachment
   switch (whose port decides whether the trace starts at all): a trace is
   built hop by hop from the state of exactly those switches, so while none
   is re-captured, re-tracing would retread the same hops. *)
type line = {
  probe : Snapshot.probe;
  deps : Types.switch_id list;  (* sorted, unique *)
  words : int;
      (* heap footprint of the line under a byte budget; 0 without one *)
  mutable tick : int;  (* last-use stamp; smallest tick is evicted first *)
}

type pair = Topology.host * Topology.host

type t = {
  net : Net.t;
  mutable snap : Snapshot.t;
  versions : (Types.switch_id, int) Hashtbl.t;
      (* last-seen Sw.version per switch *)
  horizons : (Types.switch_id, float) Hashtbl.t;
      (* earliest future instant a flow entry of the switch could expire *)
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
  mutable memo_check : (Checker.invariant list * Checker.violation list) option;
      (* last full-check result; valid until any switch is re-captured *)
  observer : event -> unit;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable recaptures : int;
  mutable memoized : int;
  mutable evictions : int;
}

let bytes_per_word = Sys.word_size / 8

let record t sid ~now =
  Hashtbl.replace t.versions sid (Sw.version (Net.switch t.net sid));
  Hashtbl.replace t.horizons sid
    (Flow_table.Version.next_expiry (Snapshot.table t.snap sid) ~now)

let create ?(observer = fun _ -> ()) ?trace_cache_budget net =
  let t =
    {
      net;
      snap = Snapshot.of_net net;
      versions = Hashtbl.create 32;
      horizons = Hashtbl.create 32;
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
  let now = Clock.now (Net.clock net) in
  List.iter (fun sid -> record t sid ~now) (Topology.switches (Net.topology net));
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

(* A switch is dirty when its forwarding-state version moved (rules, port
   or liveness changes) or when the clock crossed its expiry horizon, in
   which case some entry may have timed out with no version change. Both
   re-capture the switch into the persistent snapshot and drop every line
   indexed under it. *)
let refresh t =
  let now = Clock.now (Net.clock t.net) in
  let dirty =
    List.filter
      (fun sid ->
        let version_moved =
          match Hashtbl.find_opt t.versions sid with
          | Some v -> v <> Sw.version (Net.switch t.net sid)
          | None -> true
        in
        version_moved
        ||
        match Hashtbl.find_opt t.horizons sid with
        | Some h -> now >= h
        | None -> true)
      (Topology.switches (Net.topology t.net))
  in
  (* Even with nothing dirty the snapshot's clock must advance: no entry of
     a clean switch crosses its deadline before the horizon, so moving
     [frozen_at] to [now] changes no lookup there. *)
  t.snap <- Snapshot.refresh t.snap t.net ~dirty;
  if dirty <> [] then t.memo_check <- None;
  List.iter
    (fun sid ->
      record t sid ~now;
      t.recaptures <- t.recaptures + 1;
      t.observer (Switch_recaptured sid);
      let keys = Hashtbl.fold (fun k () acc -> k :: acc) (dependents t sid) [] in
      List.iter
        (fun key ->
          drop_line t key (Hashtbl.find t.cache key);
          t.invalidations <- t.invalidations + 1;
          t.observer Trace_invalidated)
        keys)
    dirty

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
   switch is bit-identical to the previous check, so the previous violation
   list — not just the traces behind it — is still the answer. A clean
   back-to-back check is then one version scan over the switches. Several
   invariants request the same pair, so live checks also wrap the
   persistent cache in a per-call memo: each pair is looked up once per
   check, not once per invariant. *)
let check ?invariants t =
  refresh t;
  let invs = Option.value ~default:Checker.default invariants in
  match t.memo_check with
  | Some (invs', result) when invs' = invs ->
      t.memoized <- t.memoized + 1;
      t.observer Check_memoized;
      result
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
      t.memo_check <- Some (invs, result);
      result

(* A flow-mod on switch [sid] can change the lookup of header [pkt]
   arriving on [in_port] there only if its pattern matches that header:
   adds and modifies write rules with that pattern, and deletes remove
   only rules it subsumes, so a rule set that differs from the old one
   only in rules not matching [pkt] answers the lookup the same way. A
   trace none of whose hops such a mod matches is therefore identical
   under the overlay, and so are its violations. *)
let hop_matched mods_at probe =
  List.exists
    (fun (sid, in_port, pkt) ->
      match Hashtbl.find_opt mods_at sid with
      | None -> false
      | Some fms ->
          List.exists
            (fun (fm : Message.flow_mod) -> Ofp_match.matches fm.pattern ~in_port pkt)
            fms)
    probe.Snapshot.path

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
    (fun (sid, fm) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt mods_at sid) in
      Hashtbl.replace mods_at sid (fm :: prev))
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
