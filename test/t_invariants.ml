open Openflow
open Netsim
module Snapshot = Invariants.Snapshot
module Checker = Invariants.Checker

let setup () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
  ignore (Net.poll net);
  net

let install net sid ?(priority = Message.default_priority) pattern actions =
  ignore
    (Net.send net sid
       (Message.message
          (Message.Flow_mod (Message.flow_add ~priority pattern actions))))

let mac h = Types.mac_of_host h

let test_clean_network_has_no_violations () =
  let net = setup () in
  Alcotest.(check (list string)) "no violations" []
    (List.map Checker.violation_kind (Checker.check (Snapshot.of_net net)))

let test_loop_detected () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.ring 3) in
  ignore (Net.poll net);
  install net 1 Ofp_match.any [ Action.Output 1 ];
  install net 2 Ofp_match.any [ Action.Output 2 ];
  install net 3 Ofp_match.any [ Action.Output 2 ];
  let violations = Checker.check ~invariants:[ Checker.Loop_freedom ] (Snapshot.of_net net) in
  T_util.checkb "loop found" true
    (List.exists
       (function Checker.Forwarding_loop _ -> true | _ -> false)
       violations)

let test_blackhole_detected () =
  let net = setup () in
  (* Forward h1->h2 traffic into an unwired port on s1. *)
  install net 1 (Ofp_match.make ~dl_dst:(mac 2) ()) [ Action.Output 77 ];
  let violations =
    Checker.check ~invariants:[ Checker.Black_hole_freedom ] (Snapshot.of_net net)
  in
  T_util.checkb "black hole found" true
    (List.exists
       (function Checker.Black_hole { at = [ 1 ]; _ } -> true | _ -> false)
       violations)

let test_explicit_drop_is_not_blackhole () =
  let net = setup () in
  (* A firewall-style drop rule for a specific pair, below default prio. *)
  install net 1 ~priority:10 (Ofp_match.make ~dl_dst:(mac 2) ()) [];
  Alcotest.(check (list string)) "explicit drop tolerated" []
    (List.map Checker.violation_kind
       (Checker.check
          ~invariants:[ Checker.Black_hole_freedom; Checker.No_drop_all ]
          (Snapshot.of_net net)))

let test_drop_all_detected () =
  let net = setup () in
  install net 2 ~priority:65000 Ofp_match.any [];
  let violations =
    Checker.check ~invariants:[ Checker.No_drop_all ] (Snapshot.of_net net)
  in
  T_util.checkb "drop-all flagged" true
    (List.exists
       (function Checker.Drop_all_rule { sw = 2; _ } -> true | _ -> false)
       violations)

let test_reachability_invariant () =
  let net = setup () in
  let inv = [ Checker.Pairwise_reachability [ (1, 2) ] ] in
  T_util.checkb "unprogrammed: unreachable" true
    (Checker.check ~invariants:inv (Snapshot.of_net net)
     |> List.exists (function Checker.Unreachable _ -> true | _ -> false));
  install net 1 (Ofp_match.make ~dl_dst:(mac 2) ()) [ Action.Output 1 ];
  install net 2 (Ofp_match.make ~dl_dst:(mac 2) ()) [ Action.Output 100 ];
  Alcotest.(check (list string)) "programmed: fine" []
    (List.map Checker.violation_kind
       (Checker.check ~invariants:inv (Snapshot.of_net net)))

let test_check_flow_mods_is_differential () =
  let net = setup () in
  (* Pre-existing damage... *)
  install net 1 (Ofp_match.make ~dl_dst:(mac 2) ()) [ Action.Output 77 ];
  let snap = Snapshot.of_net net in
  T_util.checkb "pre-existing violation visible to check" true
    (Checker.check snap <> []);
  (* ...is not pinned on new, harmless mods. *)
  let harmless =
    [ (3, Message.flow_add (Ofp_match.make ~dl_dst:(mac 3) ()) [ Action.Output 100 ]) ]
  in
  Alcotest.(check (list string)) "differential check is clean" []
    (List.map Checker.violation_kind (Checker.check_flow_mods snap harmless));
  (* New damage is caught. *)
  let harmful =
    [ (3, Message.flow_add (Ofp_match.make ~dl_dst:(mac 1) ()) [ Action.Output 88 ]) ]
  in
  T_util.checkb "new damage caught" true (Checker.check_flow_mods snap harmful <> [])

let test_snapshot_apply_is_pure () =
  let net = setup () in
  let snap = Snapshot.of_net net in
  let fm = Message.flow_add Ofp_match.any [ Action.Output 1 ] in
  let snap2 = Snapshot.apply_flow_mod snap 1 fm in
  T_util.checki "original snapshot unchanged" 0 (List.length (Snapshot.entries snap 1));
  T_util.checki "new snapshot has the rule" 1 (List.length (Snapshot.entries snap2 1));
  T_util.checki "live network unchanged" 0
    (Flow_table.size (Net.switch net 1).Sw.table)

let test_snapshot_delete_mod () =
  let net = setup () in
  install net 1 (Ofp_match.make ~tp_dst:80 ()) [ Action.Output 1 ];
  let snap = Snapshot.of_net net in
  let snap2 =
    Snapshot.apply_flow_mod snap 1 (Message.flow_delete (Ofp_match.make ~tp_dst:80 ()))
  in
  T_util.checki "rule deleted in snapshot" 0 (List.length (Snapshot.entries snap2 1));
  T_util.checki "live rule still present" 1
    (Flow_table.size (Net.switch net 1).Sw.table)

let set_no_flood net sid port on =
  ignore
    (Net.send net sid
       (Message.message
          (Message.Port_mod { Message.pm_port_no = port; pm_no_flood = on })))

(* Inject [pkt] from [src] into the live data plane: the hosts it was
   delivered to, and whether the hop limit killed a copy. *)
let deliver net src pkt =
  ignore (Net.poll net);
  let killed = (Net.stats net).Net.looped in
  Net.inject net src pkt;
  let hosts =
    List.filter_map
      (function Net.Delivered (h, _) -> Some h | _ -> None)
      (Net.poll net)
  in
  (List.sort_uniq compare hosts, (Net.stats net).Net.looped > killed)

(* A 3-switch ring with one link pruned by NO_FLOOD on both its ends (what
   the spanning-tree app does) and a match-all FLOOD rule on every switch:
   floods cover the tree, and no copy loops. *)
let test_pruned_ring_floods_without_loop () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.ring 3) in
  ignore (Net.poll net);
  (* ring 3: s1:1-s2:1, s2:2-s3:1, s3:2-s1:2; prune s3-s1. *)
  set_no_flood net 1 2 true;
  set_no_flood net 3 2 true;
  List.iter
    (fun sid -> install net sid Ofp_match.any [ Action.Output Types.port_flood ])
    [ 1; 2; 3 ];
  Alcotest.(check (list string)) "no loop reported" []
    (List.map Checker.violation_kind
       (Checker.check ~invariants:[ Checker.Loop_freedom ] (Snapshot.of_net net)));
  let hosts, killed = deliver net 1 (Checker.canonical_packet 1 2) in
  Alcotest.(check (list int)) "data plane delivers to h2 and h3" [ 2; 3 ] hosts;
  T_util.checkb "no hop-limit kill" false killed

(* The one tracer, pinned to the data plane: on random single-output rules,
   NO_FLOOD flags and link failures, [Snapshot.trace] reaches exactly the
   hosts [Net.inject] delivers to, and a hop-limit kill is a looped trace.
   The converse does not hold: two flood copies meeting again revisit
   forwarding state without ever reaching the hop limit. *)
type dp_op =
  | Rule of int * Message.flow_mod
  | No_flood of int * Types.port_no * bool
  | Port_down of int * Types.port_no

let gen_dp_op =
  QCheck2.Gen.(
    let rule =
      let* sid = int_range 1 3 in
      let* pattern =
        oneof
          [
            return Ofp_match.any;
            map (fun h -> Ofp_match.make ~dl_dst:(mac h) ()) (int_range 1 3);
            map (fun p -> Ofp_match.make ~in_port:p ()) (oneofl [ 1; 2; 3; 100 ]);
          ]
      in
      let* priority = oneofl [ 10; Message.default_priority; 65000 ] in
      let* out =
        oneofl [ Types.port_flood; Types.port_all; Types.port_in_port; 1; 2; 3 ]
      in
      return (Rule (sid, Message.flow_add ~priority pattern [ Action.Output out ]))
    in
    frequency
      [
        (6, rule);
        ( 2,
          map
            (fun (sid, port, on) -> No_flood (sid, port, on))
            (triple (int_range 1 3) (oneofl [ 1; 2; 100 ]) bool) );
        ( 1,
          map
            (fun (sid, port) -> Port_down (sid, port))
            (pair (int_range 1 3) (oneofl [ 1; 2 ])) );
      ])

let prop_trace_matches_data_plane =
  QCheck2.Test.make ~name:"trace reaches exactly what the data plane delivers"
    ~count:2000
    QCheck2.Gen.(
      triple bool (list_size (int_range 1 12) gen_dp_op)
        (pair (int_range 1 3) (int_range 1 3)))
    (fun (ring, ops, (src, dst)) ->
      let topo =
        if ring then Topo_gen.ring ~hosts_per_switch:1 3
        else Topo_gen.linear ~hosts_per_switch:1 3
      in
      let net = Net.create (Clock.create ()) topo in
      ignore (Net.poll net);
      List.iter
        (function
          | Rule (sid, fm) ->
              ignore (Net.send net sid (Message.message (Message.Flow_mod fm)))
          | No_flood (sid, port, on) -> set_no_flood net sid port on
          | Port_down (sid, port) -> Net.apply_fault net (Net.Port_down (sid, port)))
        ops;
      let pkt = Checker.canonical_packet src dst in
      let probe = Snapshot.trace (Snapshot.of_net net) src pkt in
      let hosts, killed = deliver net src pkt in
      probe.Snapshot.reached = hosts && ((not killed) || probe.Snapshot.looped))

let suite =
  [
    Alcotest.test_case "clean network" `Quick test_clean_network_has_no_violations;
    Alcotest.test_case "loop detection" `Quick test_loop_detected;
    Alcotest.test_case "black hole detection" `Quick test_blackhole_detected;
    Alcotest.test_case "explicit drop tolerated" `Quick test_explicit_drop_is_not_blackhole;
    Alcotest.test_case "drop-all detection" `Quick test_drop_all_detected;
    Alcotest.test_case "reachability invariant" `Quick test_reachability_invariant;
    Alcotest.test_case "differential check" `Quick test_check_flow_mods_is_differential;
    Alcotest.test_case "snapshot apply is pure" `Quick test_snapshot_apply_is_pure;
    Alcotest.test_case "snapshot delete" `Quick test_snapshot_delete_mod;
    Alcotest.test_case "pruned ring floods without a loop" `Quick
      test_pruned_ring_floods_without_loop;
    QCheck_alcotest.to_alcotest prop_trace_matches_data_plane;
  ]
