open Openflow
module Topology = Netsim.Topology
module Flow_entry = Netsim.Flow_entry

type violation =
  | Forwarding_loop of {
      src : Topology.host;
      dst : Topology.host;
      path : (Types.switch_id * Types.port_no) list;
    }
  | Black_hole of {
      src : Topology.host;
      dst : Topology.host;
      at : Types.switch_id list;
    }
  | Unreachable of { src : Topology.host; dst : Topology.host }
  | Drop_all_rule of { sw : Types.switch_id; priority : int }
  | Waypoint_bypassed of {
      src : Topology.host;
      dst : Topology.host;
      waypoint : Types.switch_id;
    }
  | Isolation_breached of { src : Topology.host; dst : Topology.host }

type invariant =
  | Loop_freedom
  | Black_hole_freedom
  | Pairwise_reachability of (Topology.host * Topology.host) list
  | No_drop_all
  | Waypoint of {
      pairs : (Topology.host * Topology.host) list;
      via : Types.switch_id;
    }
  | Isolation of {
      group_a : Topology.host list;
      group_b : Topology.host list;
    }

let default = [ Loop_freedom; Black_hole_freedom; No_drop_all ]

let canonical_packet src dst = Packet.tcp ~src_host:src ~dst_host:dst ()

let host_pairs topo =
  let hosts = Topology.hosts topo in
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst -> if src <> dst then Some (src, dst) else None)
        hosts)
    hosts

let reachable snap src dst =
  List.mem dst (Snapshot.trace snap src (canonical_packet src dst)).reached

let connectivity snap =
  let hosts = Topology.hosts (Snapshot.topology snap) in
  let pairs = ref 0 and ok = ref 0 in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if src <> dst then begin
            incr pairs;
            if reachable snap src dst then incr ok
          end)
        hosts)
    hosts;
  if !pairs = 0 then 1.0 else float !ok /. float !pairs

type scope = {
  pairs : (Topology.host * Topology.host) list;
  listed : Topology.host -> Topology.host -> bool;
  switches : Types.switch_id list;
}

(* The per-pair probing logic is parameterized on the trace function so a
   caching layer (Incremental) can serve memoized probes: every invariant
   below is a pure function of the probe and the per-switch tables, so
   any trace provider that agrees with [Snapshot.trace] yields identical
   violations in identical order. The scope narrows which pairs and
   switches are visited without reordering them. *)
let check_one ~trace ~scope snap acc = function
  | Loop_freedom ->
      List.fold_left
        (fun acc (src, dst) ->
          let probe = trace src dst in
          if probe.Snapshot.looped then
            let path =
              List.map (fun (sid, port, _) -> (sid, port)) probe.Snapshot.path
            in
            Forwarding_loop { src; dst; path } :: acc
          else acc)
        acc (Lazy.force scope).pairs
  | Black_hole_freedom ->
      List.fold_left
        (fun acc (src, dst) ->
          let probe = trace src dst in
          match probe.Snapshot.blackholed_at with
          | [] -> acc
          | at -> Black_hole { src; dst; at } :: acc)
        acc (Lazy.force scope).pairs
  | Pairwise_reachability pairs ->
      let listed = (Lazy.force scope).listed in
      List.fold_left
        (fun acc (src, dst) ->
          if not (listed src dst) then acc
          else
            let probe = trace src dst in
            if List.mem dst probe.Snapshot.reached then acc
            else Unreachable { src; dst } :: acc)
        acc pairs
  | No_drop_all ->
      (* A match-all pattern is never fully specified, so only the
         wildcarded rules can be one. *)
      List.fold_left
        (fun acc sid ->
          Netsim.Flow_table.Version.fold_wild
            (fun (e : Flow_entry.t) acc ->
              if
                Ofp_match.equal e.pattern Ofp_match.any
                && Action.is_drop e.actions
                && e.priority >= Message.default_priority
              then Drop_all_rule { sw = sid; priority = e.priority } :: acc
              else acc)
            (Snapshot.table snap sid) acc)
        acc (Lazy.force scope).switches
  | Waypoint { pairs; via } ->
      let listed = (Lazy.force scope).listed in
      List.fold_left
        (fun acc (src, dst) ->
          if not (listed src dst) then acc
          else
            let probe = trace src dst in
            if
              List.mem dst probe.Snapshot.reached
              && not
                   (List.exists
                      (fun (sid, _, _) -> sid = via)
                      probe.Snapshot.path)
            then Waypoint_bypassed { src; dst; waypoint = via } :: acc
            else acc)
        acc pairs
  | Isolation { group_a; group_b } ->
      let listed = (Lazy.force scope).listed in
      let breach src dst acc =
        if not (listed src dst) then acc
        else
          let probe = trace src dst in
          if List.mem dst probe.Snapshot.reached then
            Isolation_breached { src; dst } :: acc
          else acc
      in
      List.fold_left
        (fun acc a ->
          List.fold_left (fun acc b -> breach a b (breach b a acc)) acc group_b)
        acc group_a

let check_with ?(invariants = default) ?scope ~trace snap =
  let scope =
    match scope with
    | Some s -> Lazy.from_val s
    | None ->
        lazy
          (let topo = Snapshot.topology snap in
           {
             pairs = host_pairs topo;
             listed = (fun _ _ -> true);
             switches = Topology.switches topo;
           })
  in
  List.rev (List.fold_left (check_one ~trace ~scope snap) [] invariants)

(* The full checker memoizes traces within one call: several invariants
   probe the same (src, dst) pair, and one canonical packet per pair means
   one trace per pair suffices. *)
let memoized_trace snap =
  let memo = Hashtbl.create 64 in
  fun src dst ->
    match Hashtbl.find_opt memo (src, dst) with
    | Some probe -> probe
    | None ->
        let probe = Snapshot.trace snap src (canonical_packet src dst) in
        Hashtbl.replace memo (src, dst) probe;
        probe

let check ?(invariants = default) snap =
  check_with ~invariants ~trace:(memoized_trace snap) snap

(* Dedup key: violation kind plus its endpoints. Deliberately coarser than
   structural equality — a pre-existing black hole for a pair stays
   pre-existing even when a new mod moves it to a different switch — and
   O(1) per violation instead of a quadratic List.mem scan. *)
let violation_key = function
  | Forwarding_loop { src; dst; _ } -> ("loop", src, dst)
  | Black_hole { src; dst; _ } -> ("black-hole", src, dst)
  | Unreachable { src; dst } -> ("unreachable", src, dst)
  | Drop_all_rule { sw; priority } -> ("drop-all", sw, priority)
  | Waypoint_bypassed { src; dst; waypoint } ->
      (Printf.sprintf "waypoint-%d" waypoint, src, dst)
  | Isolation_breached { src; dst } -> ("isolation", src, dst)

let diff_new ~before after =
  let seen = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace seen (violation_key v) ()) before;
  List.filter (fun v -> not (Hashtbl.mem seen (violation_key v))) after

let check_flow_mods ?(invariants = default) snap mods =
  let before = check ~invariants snap in
  let after = check ~invariants (Snapshot.apply_flow_mods snap mods) in
  diff_new ~before after

let violation_kind = function
  | Forwarding_loop _ -> "forwarding-loop"
  | Black_hole _ -> "black-hole"
  | Unreachable _ -> "unreachable"
  | Drop_all_rule _ -> "drop-all-rule"
  | Waypoint_bypassed _ -> "waypoint-bypassed"
  | Isolation_breached _ -> "isolation-breached"

let pp_violation fmt = function
  | Forwarding_loop { src; dst; path } ->
      Format.fprintf fmt "loop on h%d->h%d (path length %d)" src dst
        (List.length path)
  | Black_hole { src; dst; at } ->
      Format.fprintf fmt "black hole on h%d->h%d at [%a]" src dst
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.pp_print_string f ",")
           Types.pp_switch)
        at
  | Unreachable { src; dst } ->
      Format.fprintf fmt "h%d cannot reach h%d" src dst
  | Drop_all_rule { sw; priority } ->
      Format.fprintf fmt "drop-all rule on %a at priority %d" Types.pp_switch
        sw priority
  | Waypoint_bypassed { src; dst; waypoint } ->
      Format.fprintf fmt "h%d->h%d delivered without traversing %a" src dst
        Types.pp_switch waypoint
  | Isolation_breached { src; dst } ->
      Format.fprintf fmt "isolation breached: h%d can reach h%d" src dst
