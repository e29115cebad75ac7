(* NetKAT-style network policies: syntax, reference denotation, and a
   classifier-based compiler to prioritized OpenFlow 1.0 flow tables.

   The compiler works per switch, on that switch's share of the policy
   ([restrict]), and gives each row a priority set by the later rows it
   overlaps ([prioritize]). Every policy constructor maps to a
   *classifier*: an ordered, complete (first-match, catch-all-terminated)
   list of (pattern, action-set) rows. Composition is classifier algebra:

   - [And]/[Or]/[Union] take the pairwise pattern intersection of two
     classifiers in lexicographic order (the first matching product row is
     the product of each operand's first matching row);
   - [Seq] pulls the second classifier's patterns back through the header
     rewrites of the first (a test on a field set to a constant either
     becomes vacuous or kills the row);
   - [Neg] flips the booleans of a predicate classifier.

   A row's action set is realized as an OF 1.0 action list by ordering its
   emissions so each copy's header state is reachable by sequential
   rewrites; a field can be restored to its original value only when the
   row's pattern pins it, which is exactly the OF 1.0 expressiveness limit
   surfaced as [Uncompilable]. *)

open Openflow

type hv =
  | In_port of Types.port_no
  | Dl_src of Types.mac
  | Dl_dst of Types.mac
  | Dl_vlan of int option
  | Dl_type of int
  | Nw_src of Types.ip
  | Nw_dst of Types.ip
  | Nw_proto of int
  | Nw_tos of int
  | Tp_src of int
  | Tp_dst of int

type pred =
  | True
  | False
  | Test of hv
  | And of pred * pred
  | Or of pred * pred
  | Neg of pred

type update =
  | To_dl_src of Types.mac
  | To_dl_dst of Types.mac
  | To_vlan of int
  | To_no_vlan
  | To_nw_src of Types.ip
  | To_nw_dst of Types.ip
  | To_nw_tos of int
  | To_tp_src of int
  | To_tp_dst of int

type t =
  | Filter of pred
  | Forward of Types.port_no
  | Flood
  | Drop
  | Modify of update
  | Union of t * t
  | Seq of t * t
  | At of Types.switch_id * t

let filter p = Filter p
let forward p = Forward p
let flood = Flood
let drop = Drop
let modify u = Modify u
let union a b = Union (a, b)
let seq a b = Seq (a, b)
let at sw p = At (sw, p)

let union_all = function
  | [] -> Drop
  | p :: ps -> List.fold_left union p ps

let ite b p q = Union (Seq (Filter b, p), Seq (Filter (Neg b), q))

let conj = function [] -> True | p :: ps -> List.fold_left (fun a b -> And (a, b)) p ps
let disj = function [] -> False | p :: ps -> List.fold_left (fun a b -> Or (a, b)) p ps

(* ---------------- pretty printing ---------------- *)

let pp_hv fmt = function
  | In_port p -> Format.fprintf fmt "in_port=%a" Types.pp_port p
  | Dl_src m -> Format.fprintf fmt "dl_src=%a" Types.pp_mac m
  | Dl_dst m -> Format.fprintf fmt "dl_dst=%a" Types.pp_mac m
  | Dl_vlan None -> Format.fprintf fmt "dl_vlan=none"
  | Dl_vlan (Some v) -> Format.fprintf fmt "dl_vlan=%d" v
  | Dl_type t -> Format.fprintf fmt "dl_type=0x%04x" t
  | Nw_src ip -> Format.fprintf fmt "nw_src=%a" Types.pp_ip ip
  | Nw_dst ip -> Format.fprintf fmt "nw_dst=%a" Types.pp_ip ip
  | Nw_proto p -> Format.fprintf fmt "nw_proto=%d" p
  | Nw_tos t -> Format.fprintf fmt "nw_tos=%d" t
  | Tp_src p -> Format.fprintf fmt "tp_src=%d" p
  | Tp_dst p -> Format.fprintf fmt "tp_dst=%d" p

let rec pp_pred fmt = function
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"
  | Test hv -> pp_hv fmt hv
  | And (a, b) -> Format.fprintf fmt "(%a and %a)" pp_pred a pp_pred b
  | Or (a, b) -> Format.fprintf fmt "(%a or %a)" pp_pred a pp_pred b
  | Neg a -> Format.fprintf fmt "not %a" pp_pred a

let pp_update fmt = function
  | To_dl_src m -> Format.fprintf fmt "dl_src:=%a" Types.pp_mac m
  | To_dl_dst m -> Format.fprintf fmt "dl_dst:=%a" Types.pp_mac m
  | To_vlan v -> Format.fprintf fmt "vlan:=%d" v
  | To_no_vlan -> Format.fprintf fmt "strip-vlan"
  | To_nw_src ip -> Format.fprintf fmt "nw_src:=%a" Types.pp_ip ip
  | To_nw_dst ip -> Format.fprintf fmt "nw_dst:=%a" Types.pp_ip ip
  | To_nw_tos t -> Format.fprintf fmt "nw_tos:=%d" t
  | To_tp_src p -> Format.fprintf fmt "tp_src:=%d" p
  | To_tp_dst p -> Format.fprintf fmt "tp_dst:=%d" p

let rec pp fmt = function
  | Filter p -> Format.fprintf fmt "filter %a" pp_pred p
  | Forward p -> Format.fprintf fmt "fwd %a" Types.pp_port p
  | Flood -> Format.pp_print_string fmt "flood"
  | Drop -> Format.pp_print_string fmt "drop"
  | Modify u -> pp_update fmt u
  | Union (a, b) -> Format.fprintf fmt "(%a | %a)" pp a pp b
  | Seq (a, b) -> Format.fprintf fmt "(%a ; %a)" pp a pp b
  | At (sw, p) -> Format.fprintf fmt "at %a (%a)" Types.pp_switch sw pp p

(* ---------------- reference semantics ---------------- *)

let eval_hv hv ~in_port (p : Packet.t) =
  match hv with
  | In_port q -> q = in_port
  | Dl_src m -> p.dl_src = m
  | Dl_dst m -> p.dl_dst = m
  | Dl_vlan v -> p.dl_vlan = v
  | Dl_type t -> p.dl_type = t
  | Nw_src ip -> p.nw_src = ip
  | Nw_dst ip -> p.nw_dst = ip
  | Nw_proto pr -> p.nw_proto = pr
  | Nw_tos t -> p.nw_tos = t
  | Tp_src q -> p.tp_src = q
  | Tp_dst q -> p.tp_dst = q

let rec eval_pred pr ~in_port pkt =
  match pr with
  | True -> true
  | False -> false
  | Test hv -> eval_hv hv ~in_port pkt
  | And (a, b) -> eval_pred a ~in_port pkt && eval_pred b ~in_port pkt
  | Or (a, b) -> eval_pred a ~in_port pkt || eval_pred b ~in_port pkt
  | Neg a -> not (eval_pred a ~in_port pkt)

let apply_update u (p : Packet.t) : Packet.t =
  match u with
  | To_dl_src m -> { p with dl_src = m }
  | To_dl_dst m -> { p with dl_dst = m }
  | To_vlan v -> { p with dl_vlan = Some v }
  | To_no_vlan -> { p with dl_vlan = None }
  | To_nw_src ip -> { p with nw_src = ip }
  | To_nw_dst ip -> { p with nw_dst = ip }
  | To_nw_tos t -> { p with nw_tos = t }
  | To_tp_src q -> { p with tp_src = q }
  | To_tp_dst q -> { p with tp_dst = q }

(* Expansion of one staged (packet, out-port) pair into concrete
   transmissions — shared by [denotation] and [eval_table] so the two
   semantics cannot disagree about reserved ports. Mirrors
   [Netsim.Sw.egress]: FLOOD/ALL fan out over the flood-eligible
   ports minus the ingress, IN_PORT hairpins, CONTROLLER/LOCAL/NONE
   transmit nothing. *)
let expand_out ~ports ~sw ~in_port (pkt, out) =
  if out = Types.port_flood || out = Types.port_all then
    ports sw
    |> List.filter (fun q -> q <> in_port)
    |> List.map (fun q -> (pkt, q))
  else if out = Types.port_in_port then [ (pkt, in_port) ]
  else if
    out = Types.port_controller || out = Types.port_local
    || out = Types.port_none
  then []
  else [ (pkt, out) ]

let denotation ~ports pol ~sw ~in_port pkt =
  (* A policy maps one packet to (transmissions, continuations): forward and
     flood tee copies out and pass the packet on; drop and a failed filter
     end processing; modify rewrites the continuation. *)
  let rec eval pol pkt =
    match pol with
    | Filter pr -> ([], if eval_pred pr ~in_port pkt then [ pkt ] else [])
    | Forward q -> (expand_out ~ports ~sw ~in_port (pkt, q), [ pkt ])
    | Flood ->
        (expand_out ~ports ~sw ~in_port (pkt, Types.port_flood), [ pkt ])
    | Drop -> ([], [])
    | Modify u -> ([], [ apply_update u pkt ])
    | At (s, p) -> if s = sw then eval p pkt else ([], [])
    | Union (a, b) ->
        let ea, ca = eval a pkt in
        let eb, cb = eval b pkt in
        (ea @ eb, ca @ cb)
    | Seq (a, b) ->
        let ea, ca = eval a pkt in
        List.fold_left
          (fun (es, cs) pk ->
            let eb, cb = eval b pk in
            (es @ eb, cs @ cb))
          (ea, []) ca
  in
  let es, _ = eval pol pkt in
  List.sort_uniq compare es

(* ---------------- compilation ---------------- *)

exception Uncompilable of string

let uncompilable fmt = Format.ksprintf (fun s -> raise (Uncompilable s)) fmt

type row = {
  r_priority : int;
  r_pattern : Ofp_match.t;
  r_actions : Action.t list;
}

type table = { t_sw : Types.switch_id; t_rows : row list }

let empty_tables = []
let table_rows ts = List.fold_left (fun n t -> n + List.length t.t_rows) 0 ts

(* -- pattern algebra -- *)

let pat_of_hv = function
  | In_port p -> Ofp_match.make ~in_port:p ()
  | Dl_src m -> Ofp_match.make ~dl_src:m ()
  | Dl_dst m -> Ofp_match.make ~dl_dst:m ()
  | Dl_vlan v -> Ofp_match.make ~dl_vlan:v ()
  | Dl_type t -> Ofp_match.make ~dl_type:t ()
  | Nw_src ip -> Ofp_match.make ~nw_src:ip ()
  | Nw_dst ip -> Ofp_match.make ~nw_dst:ip ()
  | Nw_proto p -> Ofp_match.make ~nw_proto:p ()
  | Nw_tos t -> Ofp_match.make ~nw_tos:t ()
  | Tp_src p -> Ofp_match.make ~tp_src:p ()
  | Tp_dst p -> Ofp_match.make ~tp_dst:p ()

(* Conjunction of two exact-or-wild patterns; [None] when they conflict on
   some field (no packet can match both). *)
let inter (a : Ofp_match.t) (b : Ofp_match.t) : Ofp_match.t option =
  let exception Conflict in
  let f x y =
    match (x, y) with
    | None, z | z, None -> z
    | Some u, Some v -> if u = v then Some u else raise Conflict
  in
  try
    Some
      {
        Ofp_match.in_port = f a.Ofp_match.in_port b.Ofp_match.in_port;
        dl_src = f a.dl_src b.dl_src;
        dl_dst = f a.dl_dst b.dl_dst;
        dl_vlan =
          (match (a.dl_vlan, b.dl_vlan) with
          | None, z | z, None -> z
          | Some u, Some v -> if u = v then Some u else raise Conflict);
        dl_type = f a.dl_type b.dl_type;
        nw_src = f a.nw_src b.nw_src;
        nw_dst = f a.nw_dst b.nw_dst;
        nw_proto = f a.nw_proto b.nw_proto;
        nw_tos = f a.nw_tos b.nw_tos;
        tp_src = f a.tp_src b.tp_src;
        tp_dst = f a.tp_dst b.tp_dst;
      }
  with Conflict -> None

(* -- action sets -- *)

(* Pending header rewrites relative to the original packet: [None] means
   "still the original value". [m_dl_vlan = Some None] is a strip. *)
type mods = {
  m_dl_src : Types.mac option;
  m_dl_dst : Types.mac option;
  m_dl_vlan : int option option;
  m_nw_src : Types.ip option;
  m_nw_dst : Types.ip option;
  m_nw_tos : int option;
  m_tp_src : int option;
  m_tp_dst : int option;
}

let id_mods =
  {
    m_dl_src = None;
    m_dl_dst = None;
    m_dl_vlan = None;
    m_nw_src = None;
    m_nw_dst = None;
    m_nw_tos = None;
    m_tp_src = None;
    m_tp_dst = None;
  }

let mods_of_update = function
  | To_dl_src m -> { id_mods with m_dl_src = Some m }
  | To_dl_dst m -> { id_mods with m_dl_dst = Some m }
  | To_vlan v -> { id_mods with m_dl_vlan = Some (Some v) }
  | To_no_vlan -> { id_mods with m_dl_vlan = Some None }
  | To_nw_src ip -> { id_mods with m_nw_src = Some ip }
  | To_nw_dst ip -> { id_mods with m_nw_dst = Some ip }
  | To_nw_tos t -> { id_mods with m_nw_tos = Some t }
  | To_tp_src p -> { id_mods with m_tp_src = Some p }
  | To_tp_dst p -> { id_mods with m_tp_dst = Some p }

(* [compose m1 m2]: apply [m1] first, then [m2]. *)
let compose m1 m2 =
  let f a b = match b with Some _ -> b | None -> a in
  {
    m_dl_src = f m1.m_dl_src m2.m_dl_src;
    m_dl_dst = f m1.m_dl_dst m2.m_dl_dst;
    m_dl_vlan = f m1.m_dl_vlan m2.m_dl_vlan;
    m_nw_src = f m1.m_nw_src m2.m_nw_src;
    m_nw_dst = f m1.m_nw_dst m2.m_nw_dst;
    m_nw_tos = f m1.m_nw_tos m2.m_nw_tos;
    m_tp_src = f m1.m_tp_src m2.m_tp_src;
    m_tp_dst = f m1.m_tp_dst m2.m_tp_dst;
  }

(* Pull a pattern back through pending rewrites: [pb'] matches the original
   packet iff [pb] matches the rewritten one. A test on a field set to the
   same constant becomes vacuous; on a different constant, the row is
   unreachable ([None]). Fields no rewrite can touch pass through. *)
let pullback (pb : Ofp_match.t) (m : mods) : Ofp_match.t option =
  let exception Dead in
  let f test written =
    match (test, written) with
    | t, None -> Ok t
    | None, Some _ -> Ok None
    | Some t, Some w -> if t = w then Ok None else raise Dead
  in
  let ok = function Ok x -> x | Error _ -> assert false in
  try
    Some
      {
        pb with
        Ofp_match.dl_src = ok (f pb.Ofp_match.dl_src m.m_dl_src);
        dl_dst = ok (f pb.dl_dst m.m_dl_dst);
        dl_vlan =
          (match (pb.dl_vlan, m.m_dl_vlan) with
          | t, None -> t
          | None, Some _ -> None
          | Some t, Some w -> if t = w then None else raise Dead);
        nw_src = ok (f pb.nw_src m.m_nw_src);
        nw_dst = ok (f pb.nw_dst m.m_nw_dst);
        nw_tos = ok (f pb.nw_tos m.m_nw_tos);
        tp_src = ok (f pb.tp_src m.m_tp_src);
        tp_dst = ok (f pb.tp_dst m.m_tp_dst);
      }
  with Dead -> None

type out = Phys of Types.port_no | Flood_out

type emit = { e_mods : mods; e_out : out }

type acts = { emits : emit list; conts : mods list }

let dedup xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

let pass = { emits = []; conts = [ id_mods ] }
let dead = { emits = []; conts = [] }

let union_acts a b =
  { emits = dedup (a.emits @ b.emits); conts = dedup (a.conts @ b.conts) }

(* -- classifiers -- *)

(* A classifier is an ordered, complete list of (pattern, payload) rows:
   every packet matches some row (the constructions below always keep a
   catch-all), and the payload of the *first* matching row applies. *)

let product xs ys f =
  List.concat_map
    (fun (px, ax) ->
      List.filter_map
        (fun (py, ay) ->
          match inter px py with Some p -> Some (p, f ax ay) | None -> None)
        ys)
    xs

let rec pred_classifier (pr : pred) : (Ofp_match.t * bool) list =
  match pr with
  | True -> [ (Ofp_match.any, true) ]
  | False -> [ (Ofp_match.any, false) ]
  | Test hv -> [ (pat_of_hv hv, true); (Ofp_match.any, false) ]
  | And (a, b) ->
      product (pred_classifier a) (pred_classifier b) (fun x y -> x && y)
  | Or (a, b) ->
      product (pred_classifier a) (pred_classifier b) (fun x y -> x || y)
  | Neg a -> List.map (fun (p, b) -> (p, not b)) (pred_classifier a)

(* Remove rows shadowed by an earlier (thus higher-priority) row whose
   pattern subsumes them — they can never be the first match. *)
let prune rows =
  let rec go kept = function
    | [] -> List.rev kept
    | (p, a) :: rest ->
        if List.exists (fun (q, _) -> Ofp_match.subsumes q p) kept then
          go kept rest
        else go ((p, a) :: kept) rest
  in
  go [] rows

let shift_acts m a =
  {
    emits =
      List.map (fun e -> { e with e_mods = compose m e.e_mods }) a.emits;
    conts = List.map (fun c -> compose m c) a.conts;
  }

let rec classifier sw (pol : t) : (Ofp_match.t * acts) list =
  let rows =
    match pol with
    | Filter pr ->
        List.map
          (fun (p, b) -> (p, if b then pass else dead))
          (pred_classifier pr)
    | Forward q ->
        [
          ( Ofp_match.any,
            { emits = [ { e_mods = id_mods; e_out = Phys q } ]; conts = [ id_mods ] }
          );
        ]
    | Flood ->
        [
          ( Ofp_match.any,
            { emits = [ { e_mods = id_mods; e_out = Flood_out } ]; conts = [ id_mods ] }
          );
        ]
    | Drop -> [ (Ofp_match.any, dead) ]
    | Modify u ->
        [ (Ofp_match.any, { emits = []; conts = [ mods_of_update u ] }) ]
    | At (s, p) ->
        if s = sw then classifier sw p else [ (Ofp_match.any, dead) ]
    | Union (a, b) -> product (classifier sw a) (classifier sw b) union_acts
    | Seq (a, b) ->
        let rb = classifier sw b in
        List.concat_map (fun (pa, aa) -> seq_row rb pa aa) (classifier sw a)
  in
  prune rows

(* One [Seq] row: within the region of [pa], every continuation of [aa]
   independently flows through [rb]'s rows pulled back through that
   continuation's rewrites; the results for all continuations are crossed
   (a packet takes every continuation at once) and their action sets
   unioned with [aa]'s own emissions. *)
and seq_row rb pa aa =
  if aa.conts = [] then [ (pa, aa) ]
  else
    let through m =
      List.filter_map
        (fun (pb, ab) ->
          match pullback pb m with
          | Some pb' -> Some (pb', shift_acts m ab)
          | None -> None)
        rb
    in
    let crossed =
      List.fold_left
        (fun rows m -> product rows (through m) union_acts)
        [ (Ofp_match.any, { emits = aa.emits; conts = [] }) ]
        aa.conts
    in
    List.filter_map
      (fun (p, a) ->
        match inter pa p with Some p' -> Some (p', a) | None -> None)
      crossed

(* -- realizing a row's action set as an OF 1.0 action list -- *)

(* Actions taking header state [cur] (pending rewrites relative to the
   original packet) to [target], restoring original values from the row's
   pattern where possible. [None] when a field would need an original value
   the pattern does not pin. *)
let transition (pat : Ofp_match.t) cur target : Action.t list option =
  let acc = ref [] in
  let exception Stuck in
  let field cur_v target_v pinned (set : 'a -> Action.t) =
    match (cur_v, target_v) with
    | a, b when a = b -> ()
    | _, Some v -> acc := set v :: !acc
    | Some _, None -> (
        (* restore the original value *)
        match pinned with Some v -> acc := set v :: !acc | None -> raise Stuck)
    | None, None -> ()
  in
  try
    field cur.m_dl_src target.m_dl_src pat.Ofp_match.dl_src (fun v ->
        Action.Set_dl_src v);
    field cur.m_dl_dst target.m_dl_dst pat.dl_dst (fun v -> Action.Set_dl_dst v);
    (match (cur.m_dl_vlan, target.m_dl_vlan) with
    | a, b when a = b -> ()
    | _, Some (Some v) -> acc := Action.Set_vlan v :: !acc
    | _, Some None -> acc := Action.Strip_vlan :: !acc
    | Some _, None -> (
        match pat.dl_vlan with
        | Some (Some v) -> acc := Action.Set_vlan v :: !acc
        | Some None -> acc := Action.Strip_vlan :: !acc
        | None -> raise Stuck)
    | None, None -> ());
    field cur.m_nw_src target.m_nw_src pat.nw_src (fun v -> Action.Set_nw_src v);
    field cur.m_nw_dst target.m_nw_dst pat.nw_dst (fun v -> Action.Set_nw_dst v);
    field cur.m_nw_tos target.m_nw_tos pat.nw_tos (fun v -> Action.Set_nw_tos v);
    field cur.m_tp_src target.m_tp_src pat.tp_src (fun v -> Action.Set_tp_src v);
    field cur.m_tp_dst target.m_tp_dst pat.tp_dst (fun v -> Action.Set_tp_dst v);
    Some (List.rev !acc)
  with Stuck -> None

let out_action = function
  | Phys p -> Action.Output p
  | Flood_out -> Action.Output Types.port_flood

let max_emits = 8

(* Order the emissions so every copy's headers are reachable by sequential
   rewrites (backtracking over orderings; emission counts are tiny). *)
let realize (pat : Ofp_match.t) (a : acts) : Action.t list =
  let emits = dedup a.emits in
  if emits = [] then []
  else if List.length emits > max_emits then
    uncompilable "row multicasts %d copies (max %d)" (List.length emits)
      max_emits
  else
    let rec remove x = function
      | [] -> []
      | y :: ys -> if x = y then ys else y :: remove x ys
    in
    let rec search cur remaining rev_acts =
      match remaining with
      | [] -> Some (List.rev rev_acts)
      | _ ->
          List.find_map
            (fun e ->
              match transition pat cur e.e_mods with
              | None -> None
              | Some acts ->
                  search e.e_mods (remove e remaining)
                    (out_action e.e_out :: List.rev_append acts rev_acts))
            remaining
    in
    match search id_mods emits [] with
    | Some acts -> acts
    | None ->
        uncompilable
          "no OF 1.0 serialization: %d copies need divergent rewrites of \
           unpinned fields"
          (List.length emits)

(* -- tables -- *)

(* [pol] as switch [sw] sees it: an [At] for another switch is [Drop], a
   [Drop] branch falls out of a [Union], and a [Seq] whose head drops is
   [Drop]. Each rewrite keeps the denotation at [sw]. [compile] builds a
   switch's table from this share and [agrees] evaluates a probe against
   it, so [agrees] cannot catch a fault of [restrict]. t_policy can: its
   differential compares [compile] with the denotation of the whole,
   unrestricted policy, and its per-switch agreement property compares
   [agrees] with a whole-policy check. *)
let rec restrict sw = function
  | At (s, p) -> if s = sw then restrict sw p else Drop
  | Union (a, b) -> (
      match (restrict sw a, restrict sw b) with
      | Drop, p | p, Drop -> p
      | a, b -> Union (a, b))
  | Seq (a, b) -> (
      match restrict sw a with Drop -> Drop | a -> Seq (a, restrict sw b))
  | (Filter _ | Forward _ | Flood | Drop | Modify _) as p -> p

(* Walking from the bottom, a row sits one above the highest later row it
   overlaps, or at [Message.default_priority + 1] when it overlaps none.
   Two overlapping rows therefore differ in priority, the earlier one
   higher, so the highest-priority match is the first match; rows sharing
   a priority match disjoint packets, and a stable sort by priority lists
   them in a first-match order again. A new row that overlaps nothing,
   such as a route to a new destination, moves no other row. *)
let prioritize rows =
  let base = Message.default_priority in
  let placed =
    List.fold_left
      (fun below (p, acts) ->
        let d =
          List.fold_left
            (fun d r ->
              let dr = r.r_priority - base in
              if dr > d && Ofp_match.overlaps p r.r_pattern then dr else d)
            0 below
        in
        { r_priority = base + 1 + d; r_pattern = Ofp_match.intern p;
          r_actions = acts }
        :: below)
      [] (List.rev rows)
  in
  List.stable_sort (fun a b -> compare b.r_priority a.r_priority) placed

let compile_share sw share =
  let rows = classifier sw share in
  let realized = List.map (fun (p, a) -> (p, realize p a)) rows in
  (* Trailing all-drop rows transmit nothing and shadow nothing below
     them: omit them so a pure-drop region punts instead of installing
     a drop-everything rule. *)
  let realized =
    List.rev
      (let rec strip = function
         | (_, []) :: rest -> strip rest
         | rows -> rows
       in
       strip (List.rev realized))
  in
  match realized with
  | [] -> None
  | rows ->
      let n = List.length rows in
      if n > 30000 then
        uncompilable "policy compiles to %d rows on switch %d" n sw;
      Some { t_sw = sw; t_rows = prioritize rows }

let compile ~switches pol =
  List.filter_map (fun sw -> compile_share sw (restrict sw pol)) switches

let eval_table ~ports tbl ~in_port pkt =
  match
    List.find_opt
      (fun r -> Ofp_match.matches r.r_pattern ~in_port pkt)
      tbl.t_rows
  with
  | None -> []
  | Some r ->
      Action.apply_staged r.r_actions pkt
      |> List.concat_map (expand_out ~ports ~sw:tbl.t_sw ~in_port)
      |> List.sort_uniq compare

let agrees ~ports pol tables ~probes =
  let restricted = Hashtbl.create 16 in
  let at sw =
    match Hashtbl.find_opt restricted sw with
    | Some p -> p
    | None ->
        let p = restrict sw pol in
        Hashtbl.add restricted sw p;
        p
  in
  List.for_all
    (fun (sw, in_port, pkt) ->
      let want = denotation ~ports (at sw) ~sw ~in_port pkt in
      let got =
        match List.find_opt (fun t -> t.t_sw = sw) tables with
        | None -> []
        | Some tbl -> eval_table ~ports tbl ~in_port pkt
      in
      want = got)
    probes

(* A canonical packet matching [pat], wildcards filled with defaults. *)
let witness (pat : Ofp_match.t) : Packet.t =
  let dfl d = function Some v -> v | None -> d in
  Packet.make
    ~dl_vlan:(dfl None pat.Ofp_match.dl_vlan)
    ~dl_type:(dfl Packet.ethertype_ip pat.dl_type)
    ~nw_proto:(dfl Packet.proto_tcp pat.nw_proto)
    ~nw_tos:(dfl 0 pat.nw_tos) ~tp_src:(dfl 1024 pat.tp_src)
    ~tp_dst:(dfl 80 pat.tp_dst)
    ~dl_src:(dfl (Types.mac_of_host 0) pat.dl_src)
    ~dl_dst:(dfl (Types.mac_of_host 1) pat.dl_dst)
    ~nw_src:(dfl (Types.ip_of_host 0) pat.nw_src)
    ~nw_dst:(dfl (Types.ip_of_host 1) pat.nw_dst)
    ()

let probes ~ports tables =
  let background = witness Ofp_match.any in
  List.concat_map
    (fun tbl ->
      let inject pat =
        match pat.Ofp_match.in_port with
        | Some p -> [ p ]
        | None -> (
            match ports tbl.t_sw with [] -> [ 1 ] | ps -> ps)
      in
      let row_probes =
        List.concat_map
          (fun r ->
            List.map
              (fun p -> (tbl.t_sw, p, witness r.r_pattern))
              (inject r.r_pattern))
          tbl.t_rows
      in
      let bg =
        match ports tbl.t_sw with
        | [] -> [ (tbl.t_sw, 1, background) ]
        | p :: _ -> [ (tbl.t_sw, p, background) ]
      in
      row_probes @ bg)
    tables
  |> List.sort_uniq compare

(* -- reconciliation -- *)

let flow_mods ~prev ~next =
  let rows_of sw tables =
    match List.find_opt (fun t -> t.t_sw = sw) tables with
    | None -> []
    | Some t -> t.t_rows
  in
  let switches =
    List.sort_uniq compare
      (List.map (fun t -> t.t_sw) prev @ List.map (fun t -> t.t_sw) next)
  in
  List.concat_map
    (fun sw ->
      let old_rows = rows_of sw prev in
      let new_rows = rows_of sw next in
      (* Rows sharing a priority are common, so the pattern test is the
         interned pointer check of [Ofp_match.equal], not a structural
         compare of (priority, pattern) pairs. *)
      let same_key a b =
        a.r_priority = b.r_priority && Ofp_match.equal a.r_pattern b.r_pattern
      in
      let adds =
        List.filter_map
          (fun r ->
            match List.find_opt (same_key r) old_rows with
            | Some o when o.r_actions = r.r_actions -> None
            | _ ->
                Some
                  ( sw,
                    Message.flow_add ~priority:r.r_priority r.r_pattern
                      r.r_actions ))
          new_rows
      in
      let dels =
        List.filter_map
          (fun o ->
            if List.exists (same_key o) new_rows then None
            else
              Some
                ( sw,
                  Message.flow_delete ~strict:true ~priority:o.r_priority
                    o.r_pattern ))
          old_rows
      in
      adds @ dels)
    switches
