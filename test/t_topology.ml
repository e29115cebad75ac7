open Netsim

let test_linear_shape () =
  let topo = Topo_gen.linear ~hosts_per_switch:2 4 in
  T_util.checki "switches" 4 (List.length (Topology.switches topo));
  T_util.checki "hosts" 8 (List.length (Topology.hosts topo));
  (* 3 inter-switch + 8 host links *)
  T_util.checki "links" 11 (List.length (Topology.links topo));
  T_util.checki "middle switch has 2 switch neighbors" 2
    (List.length (Topology.neighbor_switches topo 2));
  T_util.checki "end switch has 1" 1
    (List.length (Topology.neighbor_switches topo 1))

let test_ring_shape () =
  let topo = Topo_gen.ring 5 in
  List.iter
    (fun sid ->
      T_util.checki "every ring switch has 2 neighbors" 2
        (List.length (Topology.neighbor_switches topo sid)))
    (Topology.switches topo)

let test_star_shape () =
  let topo = Topo_gen.star 6 in
  T_util.checki "hub plus leaves" 7 (List.length (Topology.switches topo));
  T_util.checki "hub degree" 6 (List.length (Topology.neighbor_switches topo 1))

let test_tree_shape () =
  let topo = Topo_gen.tree ~depth:2 ~fanout:2 () in
  T_util.checki "1+2+4 switches" 7 (List.length (Topology.switches topo));
  T_util.checki "4 leaf hosts" 4 (List.length (Topology.hosts topo));
  T_util.checki "root degree 2" 2 (List.length (Topology.neighbor_switches topo 1))

let test_mesh_shape () =
  let topo = Topo_gen.mesh 4 in
  List.iter
    (fun sid ->
      T_util.checki "full mesh degree" 3
        (List.length (Topology.neighbor_switches topo sid)))
    (Topology.switches topo)

let test_peer_symmetry () =
  let topo = Topo_gen.linear 3 in
  List.iter
    (fun (l : Topology.link) ->
      (match Topology.peer topo l.a.node l.a.port with
      | Some e ->
          T_util.checkb "a's peer is b" true (e.node = l.b.node && e.port = l.b.port)
      | None -> Alcotest.fail "live link must have a peer");
      match Topology.peer topo l.b.node l.b.port with
      | Some e ->
          T_util.checkb "b's peer is a" true (e.node = l.a.node && e.port = l.a.port)
      | None -> Alcotest.fail "live link must have a peer")
    (Topology.links topo)

let test_link_state () =
  let topo = Topo_gen.linear 2 in
  let l = Option.get (Topology.link_between topo (Topology.Switch 1) (Topology.Switch 2)) in
  Topology.set_link l ~up:false;
  T_util.checkb "down link has no peer" true
    (Topology.peer topo (Topology.Switch 1) l.a.port = None
     || Topology.peer topo (Topology.Switch 2) l.a.port = None);
  T_util.checkb "peer_even_if_down still resolves" true
    (Topology.peer_even_if_down topo l.a.node l.a.port <> None);
  T_util.checki "no neighbors over dead link" 0
    (List.length (Topology.neighbor_switches topo 1))

let test_host_attachment () =
  let topo = Topo_gen.linear ~hosts_per_switch:1 3 in
  List.iter
    (fun h ->
      match Topology.host_attachment topo h with
      | Some (sid, port) ->
          T_util.checkb "host port is in host range" true (port >= 100);
          T_util.checkb "attached to its own switch" true (sid = h)
      | None -> Alcotest.fail "every host is attached")
    (Topology.hosts topo)

let test_duplicate_rejection () =
  let topo = Topology.create () in
  Topology.add_switch topo 1;
  Alcotest.check_raises "duplicate switch"
    (Invalid_argument "Topology.add_switch: duplicate switch 1") (fun () ->
      Topology.add_switch topo 1)

let test_double_wire_rejection () =
  let topo = Topology.create () in
  Topology.add_switch topo 1;
  Topology.add_switch topo 2;
  Topology.add_switch topo 3;
  ignore
    (Topology.connect topo
       { node = Switch 1; port = 1 }
       { node = Switch 2; port = 1 });
  T_util.checkb "port reuse rejected" true
    (try
       ignore
         (Topology.connect topo
            { node = Switch 1; port = 1 }
            { node = Switch 3; port = 1 });
       false
     with Invalid_argument _ -> true)

let test_self_wire_rejection () =
  let topo = Topology.create () in
  Topology.add_switch topo 1;
  let e = { Topology.node = Switch 1; port = 1 } in
  T_util.checkb "endpoint wired to itself rejected" true
    (try
       ignore (Topology.connect topo e e);
       false
     with Invalid_argument _ -> true);
  T_util.checki "no link made" 0 (List.length (Topology.links topo))

(* A link between two ports of one switch wires both of them. *)
let test_same_switch_link () =
  let topo = Topology.create () in
  Topology.add_switch topo 1;
  Topology.add_switch topo 2;
  let wire a pa b pb =
    ignore
      (Topology.connect topo
         { node = Switch a; port = pa }
         { node = Switch b; port = pb })
  in
  wire 1 1 1 2;
  wire 1 3 2 1;
  Alcotest.(check (list int))
    "s1 lists both ends of its loop" [ 1; 2; 3 ]
    (List.map fst (Topology.switch_ports topo 1));
  let net = Net.create (Clock.create ()) topo in
  T_util.checkb "s1 is built with port 2" true
    (Sw.port (Net.switch net 1) 2 <> None)

(* The list scans the indexes replaced, per endpoint: a link with both
   ends on one node lists both of its ports there. [links] is in creation
   order. *)
module Scan = struct
  let ends (l : Topology.link) = [ l.a; l.b ]

  let link_at links node port =
    List.find_opt
      (fun l ->
        List.exists
          (fun (e : Topology.endpoint) -> e.node = node && e.port = port)
          (ends l))
      links

  let far_end (l : Topology.link) node port =
    if l.a.node = node && l.a.port = port then Some l.b
    else if l.b.node = node && l.b.port = port then Some l.a
    else None

  let peer_even_if_down links node port =
    Option.bind (link_at links node port) (fun l -> far_end l node port)

  let peer links node port =
    match link_at links node port with
    | Some l when l.up -> far_end l node port
    | Some _ | None -> None

  let link_between links na nb =
    List.find_opt
      (fun (l : Topology.link) ->
        (l.a.node = na && l.b.node = nb) || (l.a.node = nb && l.b.node = na))
      links

  let switch_ports links sid =
    List.concat_map
      (fun l ->
        List.filter_map
          (fun (e : Topology.endpoint) ->
            if e.node = Topology.Switch sid then Some (e.port, l) else None)
          (ends l))
      links
    |> List.sort (fun (p, _) (q, _) -> compare p q)

  let host_attachment links h =
    match peer_even_if_down links (Topology.Host h) 1 with
    | Some { node = Topology.Switch sid; port } -> Some (sid, port)
    | Some { node = Topology.Host _; _ } | None -> None

  let hosts_on links sid =
    switch_ports links sid
    |> List.filter_map (fun (port, l) ->
           match far_end l (Topology.Switch sid) port with
           | Some { node = Topology.Host h; _ } -> Some (h, port)
           | Some { node = Topology.Switch _; _ } | None -> None)

  let neighbor_switches links sid =
    switch_ports links sid
    |> List.filter_map (fun (port, (l : Topology.link)) ->
           if not l.up then None
           else
             match far_end l (Topology.Switch sid) port with
             | Some { node = Topology.Switch nb; port = remote } ->
                 Some (nb, port, remote)
             | Some { node = Topology.Host _; _ } | None -> None)
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
end

(* Random wiring over a few switches and hosts, each wire (a, b, down):
   endpoints repeat, so parallel links, links between two ports of one
   switch, host links, refused double wiring and unwired ports all come
   up, and some links are set down. *)
let gen_wiring =
  QCheck2.Gen.(
    let* n_switches = int_range 1 4 in
    let* n_hosts = int_range 0 3 in
    let node =
      if n_hosts = 0 then map (fun s -> Topology.Switch s) (int_range 1 n_switches)
      else
        frequency
          [
            (3, map (fun s -> Topology.Switch s) (int_range 1 n_switches));
            (1, map (fun h -> Topology.Host h) (int_range 1 n_hosts));
          ]
    in
    let endpoint =
      map2 (fun node port -> { Topology.node; port }) node (int_range 1 5)
    in
    let* wires = list_size (int_range 0 24) (triple endpoint endpoint bool) in
    return (n_switches, n_hosts, wires))

let print_wiring (n_switches, n_hosts, wires) =
  let ep (e : Topology.endpoint) =
    Format.asprintf "%a:%d" Topology.pp_node e.node e.port
  in
  Printf.sprintf "%d switches, %d hosts: %s" n_switches n_hosts
    (String.concat "; "
       (List.map
          (fun (a, b, down) ->
            Printf.sprintf "%s-%s%s" (ep a) (ep b) (if down then " down" else ""))
          wires))

let prop_index_matches_scan =
  QCheck2.Test.make ~name:"indexed topology == list-scan reference"
    ~count:600 ~print:print_wiring gen_wiring
    (fun (n_switches, n_hosts, wires) ->
      let topo = Topology.create () in
      let switches = List.init n_switches succ in
      let hosts = List.init n_hosts succ in
      List.iter (Topology.add_switch topo) switches;
      List.iter (Topology.add_host topo) hosts;
      let made = ref [] in
      let refusals_agree =
        List.for_all
          (fun (ea, eb, down) ->
            let free (e : Topology.endpoint) =
              Scan.link_at !made e.node e.port = None
            in
            let expected = free ea && free eb && ea <> eb in
            match Topology.connect topo ea eb with
            | l ->
                Topology.set_link l ~up:(not down);
                made := !made @ [ l ];
                expected
            | exception Invalid_argument _ -> not expected)
          wires
      in
      let links = !made in
      let nodes =
        List.map (fun s -> Topology.Switch s) switches
        @ List.map (fun h -> Topology.Host h) hosts
      in
      let top =
        List.fold_left
          (fun m (l : Topology.link) -> max m (max l.a.port l.b.port))
          0 links
      in
      let id = Option.map (fun (l : Topology.link) -> l.link_id) in
      let ids = List.map (fun (p, (l : Topology.link)) -> (p, l.link_id)) in
      refusals_agree
      && List.map (fun (l : Topology.link) -> l.link_id) (Topology.links topo)
         = List.map (fun (l : Topology.link) -> l.link_id) links
      && List.for_all
           (fun node ->
             List.for_all
               (fun port ->
                 id (Topology.link_at topo node port)
                 = id (Scan.link_at links node port)
                 && Topology.peer topo node port = Scan.peer links node port
                 && Topology.peer_even_if_down topo node port
                    = Scan.peer_even_if_down links node port)
               (List.init (top + 2) Fun.id)
             && List.for_all
                  (fun nb ->
                    id (Topology.link_between topo node nb)
                    = id (Scan.link_between links node nb))
                  nodes)
           nodes
      && List.for_all
           (fun sid ->
             ids (Topology.switch_ports topo sid)
             = ids (Scan.switch_ports links sid)
             && Topology.hosts_on topo sid = Scan.hosts_on links sid
             && Topology.neighbor_switches topo sid
                = Scan.neighbor_switches links sid)
           switches
      && List.for_all
           (fun h ->
             Topology.host_attachment topo h = Scan.host_attachment links h)
           hosts)

(* Random topologies are connected by construction: verify with BFS. *)
let connected topo =
  match Topology.switches topo with
  | [] -> true
  | first :: _ as all ->
      let visited = Hashtbl.create 16 in
      let rec bfs frontier =
        match frontier with
        | [] -> ()
        | sid :: rest ->
            if Hashtbl.mem visited sid then bfs rest
            else begin
              Hashtbl.replace visited sid ();
              let next =
                List.map (fun (nb, _, _) -> nb)
                  (Topology.neighbor_switches topo sid)
              in
              bfs (next @ rest)
            end
      in
      bfs [ first ];
      List.for_all (Hashtbl.mem visited) all

let prop_random_connected =
  QCheck2.Test.make ~name:"random topologies are connected" ~count:50
    QCheck2.Gen.(pair (int_range 1 20) (int_range 0 15))
    (fun (switches, extra) ->
      connected
        (Topo_gen.random ~seed:(switches + (extra * 31)) ~switches
           ~extra_links:extra ()))

let prop_generators_deterministic =
  QCheck2.Test.make ~name:"same seed, same random topology" ~count:20
    QCheck2.Gen.(int_bound 1000)
    (fun seed ->
      let t1 = Topo_gen.random ~seed ~switches:8 ~extra_links:4 () in
      let t2 = Topo_gen.random ~seed ~switches:8 ~extra_links:4 () in
      let shape t =
        List.map
          (fun (l : Topology.link) -> (l.a.node, l.a.port, l.b.node, l.b.port))
          (Topology.links t)
      in
      shape t1 = shape t2)

let suite =
  [
    Alcotest.test_case "linear generator" `Quick test_linear_shape;
    Alcotest.test_case "ring generator" `Quick test_ring_shape;
    Alcotest.test_case "star generator" `Quick test_star_shape;
    Alcotest.test_case "tree generator" `Quick test_tree_shape;
    Alcotest.test_case "mesh generator" `Quick test_mesh_shape;
    Alcotest.test_case "peer symmetry" `Quick test_peer_symmetry;
    Alcotest.test_case "link state changes" `Quick test_link_state;
    Alcotest.test_case "host attachments" `Quick test_host_attachment;
    Alcotest.test_case "duplicate switch rejected" `Quick test_duplicate_rejection;
    Alcotest.test_case "port double-wire rejected" `Quick test_double_wire_rejection;
    Alcotest.test_case "endpoint wired to itself rejected" `Quick
      test_self_wire_rejection;
    Alcotest.test_case "same-switch link lists both ports" `Quick
      test_same_switch_link;
    QCheck_alcotest.to_alcotest prop_index_matches_scan;
    QCheck_alcotest.to_alcotest prop_random_connected;
    QCheck_alcotest.to_alcotest prop_generators_deterministic;
  ]
