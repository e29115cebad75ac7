open Openflow

type host = int

type node = Switch of Types.switch_id | Host of host

type endpoint = { node : node; port : Types.port_no }

type link = {
  link_id : int;
  a : endpoint;
  b : endpoint;
  mutable up : bool;
}

(* Both indexes are filled by [connect] and never emptied: a topology is
   built once and never unwired, and link state lives in the link's [up]
   field, so a lookup never goes stale. [ports_of] holds every declared
   node, so it is also the set of nodes. *)
type t = {
  mutable listed : (Types.switch_id list * host list) option;
      (* the switch and host ids ascending, made on the first read after
         a node is declared *)
  mutable link_list : link list;  (* reverse creation order *)
  mutable next_link_id : int;
  at_endpoint : (node * Types.port_no, link) Hashtbl.t;
  ports_of : (node, (Types.port_no * link) list) Hashtbl.t;
      (* a node's wired ports, ascending *)
}

let create () =
  {
    listed = None;
    link_list = [];
    next_link_id = 0;
    at_endpoint = Hashtbl.create 64;
    ports_of = Hashtbl.create 64;
  }

let insert_sorted x l =
  let rec go = function
    | [] -> [ x ]
    | y :: rest as all -> if x < y then x :: all else y :: go rest
  in
  go l

let node_exists t node = Hashtbl.mem t.ports_of node

let declare t node kind id =
  if node_exists t node then
    invalid_arg (Printf.sprintf "Topology.add_%s: duplicate %s %d" kind kind id);
  Hashtbl.replace t.ports_of node [];
  t.listed <- None

let add_switch t sid = declare t (Switch sid) "switch" sid
let add_host t hid = declare t (Host hid) "host" hid

let endpoint_eq e node port = e.node = node && e.port = port

let link_at t node port = Hashtbl.find_opt t.at_endpoint (node, port)

let ports t node = Option.value (Hashtbl.find_opt t.ports_of node) ~default:[]

let pp_node fmt = function
  | Switch sid -> Types.pp_switch fmt sid
  | Host h -> Format.fprintf fmt "h%d" h

let connect t ea eb =
  let check e =
    if not (node_exists t e.node) then
      invalid_arg
        (Format.asprintf "Topology.connect: undeclared node %a" pp_node e.node);
    if link_at t e.node e.port <> None then
      invalid_arg
        (Format.asprintf "Topology.connect: %a port %d already wired" pp_node
           e.node e.port)
  in
  check ea;
  check eb;
  if ea = eb then
    invalid_arg
      (Format.asprintf "Topology.connect: %a port %d wired to itself" pp_node
         ea.node ea.port);
  let link = { link_id = t.next_link_id; a = ea; b = eb; up = true } in
  t.next_link_id <- t.next_link_id + 1;
  t.link_list <- link :: t.link_list;
  let index e =
    Hashtbl.replace t.at_endpoint (e.node, e.port) link;
    (* Ports of one node are distinct, so the pair order is the port's. *)
    Hashtbl.replace t.ports_of e.node
      (insert_sorted (e.port, link) (ports t e.node))
  in
  index ea;
  index eb;
  link

let attach_host t h sid port =
  connect t { node = Host h; port = 1 } { node = Switch sid; port }

let listed t =
  match t.listed with
  | Some ids -> ids
  | None ->
      let add node _ (sw, hs) =
        match node with Switch s -> (s :: sw, hs) | Host h -> (sw, h :: hs)
      in
      let sw, hs = Hashtbl.fold add t.ports_of ([], []) in
      let ids = (List.sort compare sw, List.sort compare hs) in
      t.listed <- Some ids;
      ids

let switches t = fst (listed t)
let hosts t = snd (listed t)
let links t = List.rev t.link_list

let far_end l node port =
  if endpoint_eq l.a node port then Some l.b
  else if endpoint_eq l.b node port then Some l.a
  else None

let peer t node port =
  match link_at t node port with
  | Some l when l.up -> far_end l node port
  | Some _ | None -> None

let peer_even_if_down t node port =
  match link_at t node port with
  | Some l -> far_end l node port
  | None -> None

let link_between t na nb =
  let joins l =
    (l.a.node = na && l.b.node = nb) || (l.a.node = nb && l.b.node = na)
  in
  let earlier l = function Some f -> l.link_id < f.link_id | None -> true in
  List.fold_left
    (fun first (_, l) -> if joins l && earlier l first then Some l else first)
    None (ports t na)

let switch_ports t sid = ports t (Switch sid)

let host_attachment t h =
  match link_at t (Host h) 1 with
  | None -> None
  | Some l -> (
      match far_end l (Host h) 1 with
      | Some { node = Switch sid; port } -> Some (sid, port)
      | Some { node = Host _; _ } | None -> None)

let hosts_on t sid =
  switch_ports t sid
  |> List.filter_map (fun (port, l) ->
         match far_end l (Switch sid) port with
         | Some { node = Host h; _ } -> Some (h, port)
         | Some { node = Switch _; _ } | None -> None)

let neighbor_switches t sid =
  switch_ports t sid
  |> List.filter_map (fun (port, l) ->
         if not l.up then None
         else
           match far_end l (Switch sid) port with
           | Some { node = Switch nb; port = remote } -> Some (nb, port, remote)
           | Some { node = Host _; _ } | None -> None)
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let set_link l ~up = l.up <- up

let pp fmt t =
  Format.fprintf fmt "@[<v>switches: %a@,hosts: %a@,links:@,%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Types.pp_switch)
    (switches t)
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_int)
    (hosts t)
    (Format.pp_print_list (fun f l ->
         Format.fprintf f "  %a:%d <-%s-> %a:%d" pp_node l.a.node l.a.port
           (if l.up then "" else "X")
           pp_node l.b.node l.b.port))
    (links t)
