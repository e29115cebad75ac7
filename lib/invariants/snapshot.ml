open Openflow
module Topology = Netsim.Topology
module Flow_table = Netsim.Flow_table
module Sw = Netsim.Sw
module Net = Netsim.Net

module Sid_map = Map.Make (Int)

(* A switch's table is captured as its current version, which later changes
   to the live table never alter. Port state is captured as the (usually
   empty) lists of down and NO_FLOOD ports; the ascending port list is the
   switch's own, shared. *)
type sw_state = {
  table : Flow_table.Version.t;
  alive : bool;
  port_nos : Types.port_no list;
  ports_down : Types.port_no list;
  no_flood : Types.port_no list;
}

type t = {
  frozen_at : float;
  topo : Topology.t;
  switches : sw_state Sid_map.t;
}

let capture_switch net sid =
  let sw = Net.switch net sid in
  let flagged pick =
    Hashtbl.fold
      (fun n (p : Sw.port_state) acc -> if pick p then n :: acc else acc)
      sw.Sw.ports []
  in
  {
    table = Flow_table.current sw.Sw.table;
    alive = sw.Sw.up;
    port_nos = sw.Sw.port_nos;
    ports_down = flagged (fun p -> not p.port_up);
    no_flood = flagged (fun p -> p.no_flood);
  }

let of_net net =
  let topo = Net.topology net in
  let switches =
    List.fold_left
      (fun acc sid -> Sid_map.add sid (capture_switch net sid) acc)
      Sid_map.empty (Topology.switches topo)
  in
  {
    frozen_at = Netsim.Clock.now (Net.clock net);
    topo;
    switches;
  }

(* Re-capture only the dirty switches, O(ports) each; every other
   per-switch state is shared structurally with the previous snapshot. The
   incremental engine decides dirtiness from each switch's [cfg_gen] and
   table generation. *)
let refresh t net ~dirty =
  let switches =
    List.fold_left
      (fun acc sid -> Sid_map.add sid (capture_switch net sid) acc)
      t.switches dirty
  in
  { t with frozen_at = Netsim.Clock.now (Net.clock net); switches }

let topology t = t.topo

let table t sid =
  match Sid_map.find_opt sid t.switches with
  | Some s -> s.table
  | None -> Flow_table.Version.empty

let entries t sid = Flow_table.Version.entries (table t sid)

(* The overlay is the switch's own flow-mod semantics applied to the
   captured version, at the snapshot's instant; untouched switches, and the
   untouched parts of a touched switch's table, stay shared. *)
let apply_flow_mod t sid fm =
  match Sid_map.find_opt sid t.switches with
  | None -> t
  | Some s ->
      let table, _ = Flow_table.Version.apply s.table ~now:t.frozen_at fm in
      { t with switches = Sid_map.add sid { s with table } t.switches }

let apply_flow_mods t mods =
  List.fold_left (fun acc (sid, fm) -> apply_flow_mod acc sid fm) t mods

type probe = {
  reached : Topology.host list;
  punted_at : Types.switch_id list;
  blackholed_at : Types.switch_id list;
  looped : bool;
  path : (Types.switch_id * Types.port_no * Packet.t) list;
  expires : float;
}

let resolve s ~in_port (pkt, out) =
  let up p = List.mem p s.port_nos && not (List.mem p s.ports_down) in
  let no_flood p = List.mem p s.no_flood in
  List.map
    (fun p -> (pkt, p))
    (Sw.egress ~ports:s.port_nos ~up ~no_flood ~in_port out)

let trace t h pkt =
  let reached = ref [] in
  let punted = ref [] in
  let blackholed = ref [] in
  let looped = ref false in
  let path = ref [] in
  let expires = ref infinity in
  let seen = Hashtbl.create 32 in
  let rec visit sid in_port pkt hops =
    let key = (sid, in_port, pkt) in
    path := key :: !path;
    if Hashtbl.mem seen key || hops >= Net.hop_limit then looped := true
    else begin
      Hashtbl.replace seen key ();
      match Sid_map.find_opt sid t.switches with
      | Some s when s.alive -> (
          match
            Flow_table.Version.lookup s.table ~now:t.frozen_at ~in_port pkt
          with
          | None -> punted := sid :: !punted
          | Some entry ->
              expires := Float.min !expires (Netsim.Flow_entry.deadline entry);
              let staged = Action.apply_staged entry.actions pkt in
              let copies = List.concat_map (resolve s ~in_port) staged in
              if copies = [] && Action.is_drop entry.actions then ()
              else if copies = [] then blackholed := sid :: !blackholed
              else
                List.iter
                  (fun (pkt', out_port) ->
                    match
                      Topology.peer t.topo (Topology.Switch sid) out_port
                    with
                    | Some { node = Topology.Host h'; _ } ->
                        reached := h' :: !reached
                    | Some { node = Topology.Switch sid'; port = port' } ->
                        visit sid' port' pkt' (hops + 1)
                    | None -> blackholed := sid :: !blackholed)
                  copies)
      | Some _ | None -> blackholed := sid :: !blackholed
    end
  in
  (match Topology.host_attachment t.topo h with
  | Some (sid, port) when Topology.peer t.topo (Topology.Host h) 1 <> None ->
      visit sid port pkt 0
  | Some _ | None -> ());
  {
    reached = List.sort_uniq compare !reached;
    punted_at = List.sort_uniq compare !punted;
    blackholed_at = List.sort_uniq compare !blackholed;
    looped = !looped;
    path = List.rev !path;
    expires = !expires;
  }
