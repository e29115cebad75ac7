(* Model-based testing of Flow_table: a naive, obviously-correct reference
   implementation is driven with the same random flow-mod sequences as the
   real table, and their observable behaviour (lookups at several instants,
   sizes, entries, removals) must agree at every step. Patterns include
   fully-specified ones, which the table keeps in its exact-match index,
   and rules carry idle and hard timeouts. The invariant snapshot's overlay
   and a captured table version are held to the same model. *)

open Openflow
open Netsim

(* ---- the reference model: a plain list, no cleverness ---- *)

(* Every rule is installed at time 0 and no lookup refreshes it, so a rule
   with idle timeout [i] and hard timeout [h] is live at [now] exactly
   while [now] is below each non-zero one. *)
module Model = struct
  type rule = {
    pattern : Ofp_match.t;
    priority : int;
    actions : Action.t list;
    idle : int;
    hard : int;
    seq : int;  (* insertion order for deterministic ties *)
  }

  type t = { mutable rules : rule list; mutable next_seq : int }

  let create () = { rules = []; next_seq = 0 }

  let live r ~now =
    (r.hard = 0 || now < float r.hard) && (r.idle = 0 || now < float r.idle)

  let add t pattern priority actions (idle, hard) =
    t.rules <-
      List.filter
        (fun r -> not (r.priority = priority && Ofp_match.equal r.pattern pattern))
        t.rules;
    t.rules <-
      { pattern; priority; actions; idle; hard; seq = t.next_seq } :: t.rules;
    t.next_seq <- t.next_seq + 1

  let touches ~strict pattern ~priority r =
    if strict then r.priority = priority && Ofp_match.equal pattern r.pattern
    else Ofp_match.subsumes pattern r.pattern

  let modify t ~strict pattern ~priority actions =
    let hit = ref false in
    t.rules <-
      List.map
        (fun r ->
          if touches ~strict pattern ~priority r then begin
            hit := true;
            { r with actions }
          end
          else r)
        t.rules;
    !hit

  let delete t ~strict ?out_port pattern ~priority =
    let outputs_to r =
      match out_port with
      | None -> true
      | Some p -> List.mem p (Action.outputs r.actions)
    in
    let gone, kept =
      List.partition
        (fun r -> touches ~strict pattern ~priority r && outputs_to r)
        t.rules
    in
    t.rules <- kept;
    List.length gone

  let expire t ~now =
    let kept, gone = List.partition (live ~now) t.rules in
    t.rules <- kept;
    List.length gone

  let size t = List.length t.rules

  let view r = (r.pattern, r.priority, r.actions, r.idle, r.hard)

  (* Priority order, insertion order within a priority. *)
  let entries t =
    List.sort
      (fun a b ->
        match compare b.priority a.priority with
        | 0 -> compare a.seq b.seq
        | c -> c)
      t.rules
    |> List.map view

  (* Highest priority among the live matches; insertion order (lowest
     seq) breaks ties. *)
  let lookup t ~now ~in_port pkt =
    t.rules
    |> List.filter (fun r -> live r ~now && Ofp_match.matches r.pattern ~in_port pkt)
    |> List.sort (fun a b ->
           match compare b.priority a.priority with
           | 0 -> compare a.seq b.seq
           | c -> c)
    |> function
    | [] -> None
    | r :: _ -> Some (view r)
end

(* ---- operations ---- *)

type op =
  | Add of Ofp_match.t * int * Action.t list * (int * int)
  | Modify of bool * Ofp_match.t * int * Action.t list * (int * int)
  | Delete of bool * Ofp_match.t * int * Types.port_no option
  | Expire of float

let flow_mod = function
  | Add (pattern, priority, actions, (idle_timeout, hard_timeout)) ->
      Message.flow_add ~priority ~idle_timeout ~hard_timeout pattern actions
  | Modify (strict, pattern, priority, actions, (idle_timeout, hard_timeout)) ->
      {
        (Message.flow_add ~priority ~idle_timeout ~hard_timeout pattern actions) with
        command = (if strict then Message.Modify_strict else Message.Modify);
      }
  | Delete (strict, pattern, priority, out_port) ->
      { (Message.flow_delete ~strict ~priority pattern) with out_port }
  | Expire _ -> invalid_arg "flow_mod: Expire is not a flow-mod"

let apply_real table = function
  | Expire now -> ignore (Flow_table.expire table ~now)
  | op -> ignore (Flow_table.apply table ~now:0. (flow_mod op))

let apply_model model = function
  | Add (pattern, priority, actions, timeouts) ->
      Model.add model pattern priority actions timeouts
  | Modify (strict, pattern, priority, actions, timeouts) ->
      if not (Model.modify model ~strict pattern ~priority actions) then
        Model.add model pattern priority actions timeouts
  | Delete (strict, pattern, priority, out_port) ->
      ignore (Model.delete model ~strict ?out_port pattern ~priority)
  | Expire now -> ignore (Model.expire model ~now)

let probe_packets =
  [
    (1, Packet.tcp ~src_host:1 ~dst_host:2 ~dport:80 ());
    (2, Packet.tcp ~src_host:2 ~dst_host:1 ~dport:443 ());
    (1, Packet.make ~nw_proto:17 ~dl_src:(Types.mac_of_host 1)
         ~dl_dst:(Types.mac_of_host 2) ~nw_src:(Types.ip_of_host 1)
         ~nw_dst:(Types.ip_of_host 2) ~tp_dst:53 ());
  ]

(* Lookups are probed before, at and after the timeouts below expire. *)
let probe_instants = [ 0.; 1.; 2.5; 10. ]

(* Small domains maximize collisions, which is where the bugs live. *)
let small_pattern =
  QCheck2.Gen.(
    let* tp_dst = opt (oneofl [ 80; 443 ]) in
    let* nw_proto = opt (oneofl [ 6; 17 ]) in
    let* in_port = opt (oneofl [ 1; 2 ]) in
    return (Ofp_match.make ?tp_dst ?nw_proto ?in_port ()))

(* Fully-specified patterns, which the table keeps in its exact-match
   index: the exact header of each probe packet, and one probe's header on
   the other port, which no probe matches. *)
let exact_pattern =
  QCheck2.Gen.oneofl
    (let in_port, pkt = List.hd probe_packets in
     Ofp_match.exact ~in_port:(3 - in_port) pkt
     :: List.map (fun (in_port, pkt) -> Ofp_match.exact ~in_port pkt) probe_packets)

let pattern_gen = QCheck2.Gen.oneof [ small_pattern; exact_pattern ]

let timeouts_gen =
  QCheck2.Gen.(
    frequency
      [ (2, return (0, 0)); (1, pair (oneofl [ 0; 1; 3 ]) (oneofl [ 0; 1; 3 ])) ])

let flow_mod_gen =
  QCheck2.Gen.(
    let* pattern = pattern_gen in
    let* priority = oneofl [ 10; 20; 30 ] in
    let* actions =
      map (fun p -> [ Action.Output p ]) (oneofl [ 1; 2; 3 ])
    in
    let* timeouts = timeouts_gen in
    let* strict = bool in
    let* out_port = opt (oneofl [ 1; 2; 3 ]) in
    oneof
      [
        return (Add (pattern, priority, actions, timeouts));
        return (Modify (strict, pattern, priority, actions, timeouts));
        return (Delete (strict, pattern, priority, out_port));
      ])

let op_gen =
  QCheck2.Gen.(
    frequency
      [
        (8, flow_mod_gen);
        (1, map (fun now -> Expire now) (oneofl probe_instants));
      ])

let view_entry (e : Flow_entry.t) =
  (e.pattern, e.priority, e.actions, e.idle_timeout, e.hard_timeout)

let view = List.map view_entry

(* Every probe packet's lookup at every probe instant, through [lookup]. *)
let lookups lookup =
  List.concat_map
    (fun now ->
      List.map
        (fun (in_port, pkt) ->
          Option.map view_entry (lookup ~now ~in_port pkt))
        probe_packets)
    probe_instants

let model_lookups model =
  List.concat_map
    (fun now ->
      List.map
        (fun (in_port, pkt) -> Model.lookup model ~now ~in_port pkt)
        probe_packets)
    probe_instants

let agree table model =
  Model.size model = Flow_table.size table
  && view (Flow_table.entries table) = Model.entries model
  && lookups (Flow_table.lookup table) = model_lookups model

let prop_model_agreement =
  QCheck2.Test.make ~name:"flow table agrees with naive reference" ~count:300
    QCheck2.Gen.(list_size (int_range 1 25) op_gen)
    (fun ops ->
      let table = Flow_table.create () in
      let model = Model.create () in
      List.for_all
        (fun op ->
          apply_real table op;
          apply_model model op;
          agree table model)
        ops)

let prop_delete_counts_agree =
  QCheck2.Test.make ~name:"delete removes the same rule count" ~count:300
    QCheck2.Gen.(
      pair (list_size (int_range 1 15) op_gen) (pair pattern_gen bool))
    (fun (ops, (pattern, strict)) ->
      let table = Flow_table.create () in
      let model = Model.create () in
      List.iter
        (fun op ->
          apply_real table op;
          apply_model model op)
        ops;
      let real_gone =
        List.length (Flow_table.delete table ~strict pattern ~priority:20)
      in
      let model_gone = Model.delete model ~strict pattern ~priority:20 in
      real_gone = model_gone)

(* The screen's overlay applies flow-mods to a switch's captured table at
   the snapshot's instant; from an empty snapshot it must hold the model's
   rules in the model's order and answer the model's lookups. *)
let prop_snapshot_overlay_agreement =
  QCheck2.Test.make ~name:"snapshot overlay agrees with naive reference"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 25) flow_mod_gen)
    (fun ops ->
      let module Snapshot = Invariants.Snapshot in
      let net = Net.create (Clock.create ()) (Topo_gen.linear 1) in
      let model = Model.create () in
      let snap = ref (Snapshot.of_net net) in
      List.for_all
        (fun op ->
          snap := Snapshot.apply_flow_mods !snap [ (1, flow_mod op) ];
          apply_model model op;
          view (Snapshot.entries !snap 1) = Model.entries model
          && lookups (Flow_table.Version.lookup (Snapshot.table !snap 1))
             = model_lookups model)
        ops)

(* A version is what the snapshot keeps of a switch: whatever the live
   table does after the capture, the version's entries and lookups stay
   those it had when captured. *)
let prop_captured_version_frozen =
  QCheck2.Test.make ~name:"a captured version never changes" ~count:300
    QCheck2.Gen.(
      pair (list_size (int_range 0 15) op_gen) (list_size (int_range 1 20) op_gen))
    (fun (before, after) ->
      let table = Flow_table.create () in
      List.iter (apply_real table) before;
      let v = Flow_table.current table in
      let seen () =
        ( Flow_table.Version.size v,
          view (Flow_table.Version.entries v),
          lookups (Flow_table.Version.lookup v) )
      in
      let at_capture = seen () in
      List.for_all
        (fun op ->
          apply_real table op;
          seen () = at_capture)
        after)

(* Interning is a representation change only: the same operation sequence
   against a table built with interning on and one built with it off (the
   pre-interning representation — every pattern a private record) must be
   observationally identical, down to delete counts. *)
let with_interning on f =
  let was = Ofp_match.interning_enabled () in
  Ofp_match.set_interning on;
  Fun.protect ~finally:(fun () -> Ofp_match.set_interning was) f

let prop_interning_differential =
  QCheck2.Test.make
    ~name:"interned table agrees with non-interned representation" ~count:300
    QCheck2.Gen.(
      pair (list_size (int_range 1 25) op_gen) (pair pattern_gen bool))
    (fun (ops, (del_pattern, del_strict)) ->
      let interned = Flow_table.create () in
      let fresh = Flow_table.create () in
      let agree_step op =
        with_interning true (fun () -> apply_real interned op);
        with_interning false (fun () -> apply_real fresh op);
        Flow_table.size interned = Flow_table.size fresh
        && lookups (Flow_table.lookup interned)
           = lookups (Flow_table.lookup fresh)
      in
      List.for_all agree_step ops
      && (* final delete removes the same rules from both *)
      List.length
        (Flow_table.delete interned ~strict:del_strict del_pattern
           ~priority:20)
      = List.length
          (Flow_table.delete fresh ~strict:del_strict del_pattern
             ~priority:20))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_model_agreement;
    QCheck_alcotest.to_alcotest prop_delete_counts_agree;
    QCheck_alcotest.to_alcotest prop_snapshot_overlay_agreement;
    QCheck_alcotest.to_alcotest prop_captured_version_frozen;
    QCheck_alcotest.to_alcotest prop_interning_differential;
  ]
