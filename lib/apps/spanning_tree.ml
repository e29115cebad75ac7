open Openflow
open Controller

module Port_set = Set.Make (struct
  type t = Types.switch_id * Types.port_no

  let compare = compare
end)

type state = Port_set.t  (* ports currently set no_flood *)

let name = "spanning_tree"

let subscriptions =
  [
    Event.K_switch_up;
    Event.K_switch_down;
    Event.K_link_up;
    Event.K_link_down;
  ]

let init () = Port_set.empty

(* BFS tree over the live links, rooted at the lowest switch id; returns
   the set of unordered switch pairs forming tree edges. *)
let tree_edges links =
  let switches =
    List.sort_uniq compare
      (List.concat_map
         (fun (l : Event.link) -> [ l.src_switch; l.dst_switch ])
         links)
  in
  match switches with
  | [] -> []
  | root :: _ ->
      let adjacency = Hashtbl.create 16 in
      List.iter
        (fun (l : Event.link) ->
          let existing =
            Option.value (Hashtbl.find_opt adjacency l.src_switch) ~default:[]
          in
          Hashtbl.replace adjacency l.src_switch (l.dst_switch :: existing))
        links;
      let visited = Hashtbl.create 16 in
      Hashtbl.replace visited root ();
      let edges = ref [] in
      let queue = Queue.create () in
      Queue.push root queue;
      while not (Queue.is_empty queue) do
        let sid = Queue.pop queue in
        let neighbors =
          Option.value (Hashtbl.find_opt adjacency sid) ~default:[]
          |> List.sort compare
        in
        List.iter
          (fun nb ->
            if not (Hashtbl.mem visited nb) then begin
              Hashtbl.replace visited nb ();
              edges := (min sid nb, max sid nb) :: !edges;
              Queue.push nb queue
            end)
          neighbors
      done;
      !edges

let handle (ctx : App_sig.context) st event =
  match event with
  | Event.Switch_up _ | Event.Switch_down _ | Event.Link_up _
  | Event.Link_down _ ->
      let links = App_sig.links ctx in
      let tree = tree_edges links in
      let on_tree (l : Event.link) =
        List.mem (min l.src_switch l.dst_switch, max l.src_switch l.dst_switch) tree
      in
      (* Every inter-switch endpoint of an off-tree link gets pruned; links
         carry both directions, so each physical link contributes its two
         endpoints. *)
      let desired =
        links
        |> List.filter (fun l -> not (on_tree l))
        |> List.map (fun (l : Event.link) -> (l.src_switch, l.src_port))
        |> Port_set.of_list
      in
      let mods no_flood ports =
        Port_set.fold
          (fun (sid, port) acc -> Command.set_no_flood sid port no_flood :: acc)
          ports []
      in
      if Port_set.equal desired st then (st, [])
      else
        ( desired,
          mods true (Port_set.diff desired st)
          @ mods false (Port_set.diff st desired) )
  | _ -> (st, [])
