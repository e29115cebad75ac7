(* The network-policy language and its compiler.

   The core property is the differential: over random policies × random
   located packets, the compiled prioritized flow table produces exactly
   the forwarding relation defined by [Policy.denotation]. Policies that
   have no OF 1.0 action-list serialization raise [Uncompilable] and are
   skipped (but must stay a small minority of the generated space). *)

open Openflow

(* ---------------- a small deterministic world ---------------- *)

let switches = [ 1; 2 ]
let ports _sw = [ 1; 2; 3 ]
let macs = [| Types.mac_of_host 0; Types.mac_of_host 1; Types.mac_of_host 2 |]
let ips = [| Types.ip_of_host 0; Types.ip_of_host 1 |]

(* ---------------- generators ---------------- *)

let gen_hv =
  QCheck.Gen.(
    oneof
      [
        map (fun p -> Policy.In_port (1 + (p mod 3))) small_nat;
        map (fun i -> Policy.Dl_src macs.(i mod 3)) small_nat;
        map (fun i -> Policy.Dl_dst macs.(i mod 3)) small_nat;
        oneofl
          [
            Policy.Dl_vlan None;
            Policy.Dl_vlan (Some 10);
            Policy.Dl_vlan (Some 20);
          ];
        oneofl
          [
            Policy.Dl_type Packet.ethertype_ip;
            Policy.Dl_type Packet.ethertype_arp;
          ];
        map (fun i -> Policy.Nw_src ips.(i mod 2)) small_nat;
        map (fun i -> Policy.Nw_dst ips.(i mod 2)) small_nat;
        oneofl
          [ Policy.Nw_proto Packet.proto_tcp; Policy.Nw_proto Packet.proto_udp ];
        oneofl [ Policy.Nw_tos 0; Policy.Nw_tos 46 ];
        oneofl [ Policy.Tp_src 1024; Policy.Tp_src 2048 ];
        oneofl [ Policy.Tp_dst 80; Policy.Tp_dst 23; Policy.Tp_dst 445 ];
      ])

let rec gen_pred depth =
  QCheck.Gen.(
    if depth = 0 then
      oneof
        [
          return Policy.True;
          return Policy.False;
          map (fun h -> Policy.Test h) gen_hv;
        ]
    else
      frequency
        [
          (2, map (fun h -> Policy.Test h) gen_hv);
          (1, return Policy.True);
          (1, return Policy.False);
          ( 2,
            map2
              (fun a b -> Policy.And (a, b))
              (gen_pred (depth - 1))
              (gen_pred (depth - 1)) );
          ( 2,
            map2
              (fun a b -> Policy.Or (a, b))
              (gen_pred (depth - 1))
              (gen_pred (depth - 1)) );
          (1, map (fun a -> Policy.Neg a) (gen_pred (depth - 1)));
        ])

let gen_update =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Policy.To_dl_src macs.(i mod 3)) small_nat;
        map (fun i -> Policy.To_dl_dst macs.(i mod 3)) small_nat;
        oneofl [ Policy.To_vlan 10; Policy.To_vlan 20; Policy.To_no_vlan ];
        map (fun i -> Policy.To_nw_src ips.(i mod 2)) small_nat;
        map (fun i -> Policy.To_nw_dst ips.(i mod 2)) small_nat;
        oneofl [ Policy.To_nw_tos 0; Policy.To_nw_tos 46 ];
        oneofl [ Policy.To_tp_src 1024; Policy.To_tp_src 2048 ];
        oneofl [ Policy.To_tp_dst 80; Policy.To_tp_dst 8080 ];
      ])

let rec gen_policy depth =
  QCheck.Gen.(
    if depth = 0 then
      frequency
        [
          (3, map (fun p -> Policy.Filter p) (gen_pred 1));
          (3, map (fun p -> Policy.Forward (1 + (p mod 3))) small_nat);
          (1, return Policy.Flood);
          (1, return Policy.Drop);
          (2, map (fun u -> Policy.Modify u) gen_update);
        ]
    else
      frequency
        [
          (2, map (fun p -> Policy.Filter p) (gen_pred (min depth 2)));
          (2, map (fun p -> Policy.Forward (1 + (p mod 3))) small_nat);
          (1, return Policy.Flood);
          (2, map (fun u -> Policy.Modify u) gen_update);
          ( 3,
            map2
              (fun a b -> Policy.Union (a, b))
              (gen_policy (depth - 1))
              (gen_policy (depth - 1)) );
          ( 3,
            map2
              (fun a b -> Policy.Seq (a, b))
              (gen_policy (depth - 1))
              (gen_policy (depth - 1)) );
          ( 1,
            map2
              (fun sw p -> Policy.At (1 + (sw mod 2), p))
              small_nat
              (gen_policy (depth - 1)) );
        ])

let gen_packet =
  QCheck.Gen.(
    let* src = int_bound 2 in
    let* dst = int_bound 2 in
    let* vlan = oneofl [ None; Some 10; Some 20 ] in
    let* dl_type = oneofl [ Packet.ethertype_ip; Packet.ethertype_arp ] in
    let* proto = oneofl [ Packet.proto_tcp; Packet.proto_udp ] in
    let* tos = oneofl [ 0; 46 ] in
    let* sport = oneofl [ 1024; 2048 ] in
    let* dport = oneofl [ 80; 23; 445; 8080 ] in
    return
      (Packet.make ~dl_vlan:vlan ~dl_type ~nw_proto:proto ~nw_tos:tos
         ~tp_src:sport ~tp_dst:dport ~dl_src:macs.(src) ~dl_dst:macs.(dst)
         ~nw_src:ips.(src mod 2) ~nw_dst:ips.(dst mod 2) ()))

let gen_located =
  QCheck.Gen.(
    let* sw = oneofl switches in
    let* in_port = oneofl (ports sw) in
    let* pkt = gen_packet in
    return (sw, in_port, pkt))

let gen_case =
  QCheck.Gen.(
    let* pol = gen_policy 3 in
    let* located = list_size (int_range 1 6) gen_located in
    return (pol, located))

let print_case (pol, located) =
  Format.asprintf "@[<v>policy: %a@,packets: %d@]" Policy.pp pol
    (List.length located)

let pp_rel =
  Fmt.Dump.list (Fmt.Dump.pair Packet.pp (Fmt.fmt "port %d"))

let forwarding tables pol sw in_port pkt =
  let want = Policy.denotation ~ports pol ~sw ~in_port pkt in
  let got =
    match List.find_opt (fun t -> t.Policy.t_sw = sw) tables with
    | None -> []
    | Some tbl -> Policy.eval_table ~ports tbl ~in_port pkt
  in
  (want, got)

let uncompilable = ref 0
let compiled = ref 0

let differential_prop (pol, located) =
  match Policy.compile ~switches pol with
  | exception Policy.Uncompilable _ ->
      incr uncompilable;
      true
  | tables ->
      incr compiled;
      List.for_all
        (fun (sw, in_port, pkt) ->
          let want, got = forwarding tables pol sw in_port pkt in
          if want = got then true
          else
            QCheck.Test.fail_reportf
              "@[<v>policy: %a@,sw=%d in_port=%d@,pkt: %a@,denotation: %a@,table: %a@]"
              Policy.pp pol sw in_port Packet.pp pkt pp_rel want pp_rel got)
        located

let test_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"compiled table == denotation"
       (QCheck.make ~print:print_case gen_case)
       differential_prop)

(* Runs after the differential: Uncompilable policies must be a small
   minority or the property above would be vacuous. *)
let test_compilable_majority () =
  Alcotest.(check bool)
    (Printf.sprintf "compiled %d, uncompilable %d" !compiled !uncompilable)
    true
    (!compiled > 3 * !uncompilable)

(* ---------------- per-switch agreement ---------------- *)

(* [Policy.agrees] evaluates each probe against its switch's restriction
   of the policy. The reference here is the unrestricted check: every
   probe against the whole policy. Tables come from the policy itself
   (agreement expected) and from a second random policy, so that the
   two checks must also agree on [false]. Random located packets join the
   derived probes to reach switches that have no table. *)

let mismatched_disagreements = ref 0

let whole_policy_agrees pol tables probes =
  List.for_all
    (fun (sw, in_port, pkt) ->
      let want, got = forwarding tables pol sw in_port pkt in
      want = got)
    probes

let per_switch_agreement_prop (pol, other, located) =
  List.for_all
    (fun (source, mismatched) ->
      match Policy.compile ~switches source with
      | exception Policy.Uncompilable _ -> true
      | tables ->
          let probes = Policy.probes ~ports tables @ located in
          let got = Policy.agrees ~ports pol tables ~probes in
          if mismatched && not got then incr mismatched_disagreements;
          got = whole_policy_agrees pol tables probes
          || QCheck.Test.fail_reportf
               "@[<v>policy: %a@,tables from: %a@,per-switch: %b@]" Policy.pp
               pol Policy.pp source got)
    [ (pol, false); (other, true) ]

let test_per_switch_agreement =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400
       ~name:"per-switch agreement == whole-policy agreement"
       (QCheck.make
          ~print:(fun (pol, other, located) ->
            Format.asprintf "@[<v>%s@,other: %a@]"
              (print_case (pol, located))
              Policy.pp other)
          QCheck.Gen.(
            triple (gen_policy 3) (gen_policy 3)
              (list_size (int_range 1 6) gen_located)))
       per_switch_agreement_prop)

(* Runs after the property: tables compiled from an unrelated policy must
   produce some disagreements, or the [false] side went unchecked. *)
let test_agreement_not_vacuous () =
  Alcotest.(check bool)
    (Printf.sprintf "%d disagreements from mismatched tables"
       !mismatched_disagreements)
    true
    (!mismatched_disagreements > 0)

(* ---------------- priorities ---------------- *)

(* The differential above evaluates rows in list order and never reads a
   priority; a switch answers with its highest-priority match. So every
   table must list its rows with non-increasing priority and give any two
   overlapping rows distinct priorities, the earlier one higher; and a
   flow table loaded with the rows in reverse list order, so insertion
   order cannot stand in for priority, must answer each located packet
   with the first matching row in list order, or with nothing. *)

let priorities_ordered (tbl : Policy.table) =
  let rec go = function
    | [] -> true
    | (r : Policy.row) :: rest ->
        List.for_all
          (fun (s : Policy.row) ->
            r.r_priority > s.r_priority
            || r.r_priority = s.r_priority
               && not (Ofp_match.overlaps r.r_pattern s.r_pattern))
          rest
        && go rest
  in
  go tbl.t_rows

let loaded_in_reverse (tbl : Policy.table) =
  let ft = Netsim.Flow_table.create () in
  List.iter
    (fun (r : Policy.row) ->
      ignore
        (Netsim.Flow_table.apply ft ~now:0.
           (Message.flow_add ~priority:r.r_priority r.r_pattern r.r_actions)))
    (List.rev tbl.t_rows);
  Netsim.Flow_table.current ft

let first_match_prop (pol, located) =
  match Policy.compile ~switches pol with
  | exception Policy.Uncompilable _ -> true
  | tables ->
      List.for_all
        (fun (tbl : Policy.table) ->
          priorities_ordered tbl
          || QCheck.Test.fail_reportf
               "@[<v>policy: %a@,s%d lists rows out of priority order@]"
               Policy.pp pol tbl.t_sw)
        tables
      && List.for_all
           (fun (sw, in_port, pkt) ->
             let want, got =
               match List.find_opt (fun t -> t.Policy.t_sw = sw) tables with
               | None -> (None, None)
               | Some tbl ->
                   ( List.find_opt
                       (fun (r : Policy.row) ->
                         Ofp_match.matches r.r_pattern ~in_port pkt)
                       tbl.t_rows,
                     Netsim.Flow_table.Version.lookup (loaded_in_reverse tbl)
                       ~now:0. ~in_port pkt )
             in
             match (want, got) with
             | None, None -> true
             | Some r, Some e
               when Ofp_match.equal r.r_pattern e.Netsim.Flow_entry.pattern
                    && r.r_actions = e.actions ->
                 true
             | _ ->
                 QCheck.Test.fail_reportf
                   "@[<v>policy: %a@,sw=%d in_port=%d@,pkt: %a@,first match: \
                    %s@,lookup: %s@]"
                   Policy.pp pol sw in_port Packet.pp pkt
                   (match want with
                   | None -> "none"
                   | Some r -> Format.asprintf "%a" Ofp_match.pp r.r_pattern)
                   (match got with
                   | None -> "none"
                   | Some e -> Format.asprintf "%a" Ofp_match.pp e.pattern))
           located

let test_first_match =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400
       ~name:"installed table answers as its first matching row"
       (QCheck.make ~print:print_case gen_case)
       first_match_prop)

(* ---------------- proportional installs ---------------- *)

(* policy_router's intent: per destination, every switch that routes it
   forwards traffic to its MAC out one port. Adding a destination must
   cost one add on each switch that routes it and move no installed row,
   wherever its MAC sorts among the router's known ones. Priorities by
   position would move every row above the new one: 2n + 1 flow-mods per
   switch for a destination that sorts last. *)
let test_new_destination_adds_one_row () =
  let fabric = [ 1; 2; 3; 4 ] in
  let route (h, unrouted) =
    let dst = (h mod 4) + 1 in
    Policy.union_all
      (List.filter_map
         (fun sw ->
           if List.mem sw unrouted then None
           else
             let out = if sw = dst then 100 else if sw < dst then 2 else 1 in
             Some
               (Policy.at sw
                  (Policy.seq
                     (Policy.filter
                        (Policy.Test (Policy.Dl_dst (Types.mac_of_host h))))
                     (Policy.forward out))))
         fabric)
  in
  let compile dests =
    Policy.compile ~switches:fabric
      (Policy.union_all (List.map route (List.sort compare dests)))
  in
  let rows tables =
    List.concat_map
      (fun t ->
        List.map
          (fun (r : Policy.row) ->
            (t.Policy.t_sw, r.r_priority, r.r_pattern, r.r_actions))
          t.Policy.t_rows)
      tables
  in
  (* (host, switches with no route to it) *)
  let known = [ (1, []); (2, []); (3, [ 1 ]); (5, []); (6, []); (7, []) ] in
  let prev = compile known in
  List.iter
    (fun ((h, unrouted) as added) ->
      let next = compile (added :: known) in
      let mods = Policy.flow_mods ~prev ~next in
      Alcotest.(check (list int))
        (Printf.sprintf "host %d: one flow-mod per switch that routes it" h)
        (List.filter (fun sw -> not (List.mem sw unrouted)) fabric)
        (List.map fst mods);
      List.iter
        (fun (_, fm) ->
          Alcotest.(check bool) "an add, no delete" true
            (fm.Message.command = Message.Add);
          Alcotest.(check bool) "for the new destination" true
            (fm.Message.pattern.Ofp_match.dl_dst = Some (Types.mac_of_host h)))
        mods;
      List.iter
        (fun row ->
          Alcotest.(check bool)
            "an installed row keeps its priority, pattern and actions" true
            (List.mem row (rows next)))
        (rows prev))
    [ (4, [ 4 ]); (8, [ 2 ]) ]

(* ---------------- units ---------------- *)

let probe_agreement pol =
  let tables = Policy.compile ~switches pol in
  let probes = Policy.probes ~ports tables in
  Policy.agrees ~ports pol tables ~probes

let blocked_pred =
  Policy.(
    conj
      [
        Test (Dl_type Packet.ethertype_ip);
        Test (Nw_proto Packet.proto_tcp);
        disj [ Test (Tp_dst 23); Test (Tp_dst 445) ];
      ])

let firewall_policy = Policy.(ite blocked_pred drop flood)

let telnet =
  Packet.make ~tp_dst:23 ~dl_src:macs.(0) ~dl_dst:macs.(1) ~nw_src:ips.(0)
    ~nw_dst:ips.(1) ()

let test_firewall_shape () =
  let tables = Policy.compile ~switches firewall_policy in
  Alcotest.(check int) "one table per switch" 2 (List.length tables);
  let tbl = List.hd tables in
  Alcotest.(check int)
    "telnet dropped" 0
    (List.length (Policy.eval_table ~ports tbl ~in_port:1 telnet));
  Alcotest.(check int)
    "web flooded to the two other ports" 2
    (List.length
       (Policy.eval_table ~ports tbl ~in_port:1 { telnet with tp_dst = 80 }));
  Alcotest.(check bool) "probe agreement" true (probe_agreement firewall_policy)

let test_priorities_above_default () =
  let tables = Policy.compile ~switches firewall_policy in
  List.iter
    (fun t ->
      List.iter
        (fun r ->
          Alcotest.(check bool)
            "compiled rows outrank default-priority rules" true
            (r.Policy.r_priority > Message.default_priority))
        t.Policy.t_rows)
    tables

let test_seq_modify () =
  (* rewrite then forward: the emitted copy carries the rewritten header *)
  let pol = Policy.(seq (modify (To_nw_tos 46)) (forward 2)) in
  let tables = Policy.compile ~switches pol in
  let tbl = List.find (fun t -> t.Policy.t_sw = 1) tables in
  match Policy.eval_table ~ports tbl ~in_port:1 telnet with
  | [ (pkt, 2) ] -> Alcotest.(check int) "tos rewritten" 46 pkt.Packet.nw_tos
  | other ->
      Alcotest.failf "unexpected relation: %a" pp_rel other

let test_at_scopes_to_switch () =
  let pol = Policy.(at 2 (forward 3)) in
  let tables = Policy.compile ~switches pol in
  Alcotest.(check bool)
    "no table for switch 1" true
    (not (List.exists (fun t -> t.Policy.t_sw = 1) tables));
  let t2 = List.find (fun t -> t.Policy.t_sw = 2) tables in
  Alcotest.(check int)
    "switch 2 forwards" 1
    (List.length (Policy.eval_table ~ports t2 ~in_port:1 telnet))

let test_uncompilable_multicast () =
  (* Two copies that diverge on an unpinned field with no serialization:
     copy A keeps the original dl_src, copy B rewrites it — and vice versa
     for nw_tos — so neither order works without a pinned original. *)
  let pol =
    Policy.(
      union
        (seq (modify (To_nw_tos 46)) (forward 1))
        (seq (modify (To_dl_src macs.(2))) (forward 2)))
  in
  Alcotest.check_raises "no OF 1.0 serialization"
    (Policy.Uncompilable
       "no OF 1.0 serialization: 2 copies need divergent rewrites of \
        unpinned fields")
    (fun () -> ignore (Policy.compile ~switches pol))

let test_pinned_field_restores () =
  (* The same divergent multicast compiles once the pattern pins the
     fields, because the original values can be restored. *)
  let pol =
    Policy.(
      seq
        (filter (conj [ Test (Nw_tos 0); Test (Dl_src macs.(0)) ]))
        (union
           (seq (modify (To_nw_tos 46)) (forward 1))
           (seq (modify (To_dl_src macs.(2))) (forward 2))))
  in
  let tables = Policy.compile ~switches pol in
  Alcotest.(check bool) "compiles" true (tables <> []);
  Alcotest.(check bool) "probe agreement" true (probe_agreement pol)

let test_flow_mods_diff () =
  let prev = Policy.compile ~switches firewall_policy in
  (* same policy: no mods *)
  let next = Policy.compile ~switches firewall_policy in
  Alcotest.(check int)
    "identical tables need no mods" 0
    (List.length (Policy.flow_mods ~prev ~next));
  (* drop the policy entirely: every row is deleted, strictly *)
  let mods = Policy.flow_mods ~prev ~next:Policy.empty_tables in
  Alcotest.(check int)
    "teardown deletes every row" (Policy.table_rows prev) (List.length mods);
  List.iter
    (fun (_, fm) ->
      match fm.Message.command with
      | Message.Delete_strict -> ()
      | _ -> Alcotest.fail "expected strict delete")
    mods;
  (* a changed policy replaces changed rows via Add *)
  let next = Policy.compile ~switches Policy.(ite blocked_pred drop (forward 2)) in
  let mods = Policy.flow_mods ~prev ~next in
  Alcotest.(check bool) "transition emits mods" true (mods <> [])

let test_patterns_interned () =
  let tables = Policy.compile ~switches firewall_policy in
  List.iter
    (fun t ->
      List.iter
        (fun r ->
          Alcotest.(check bool)
            "pattern is the canonical interned block" true
            (Ofp_match.intern r.Policy.r_pattern == r.Policy.r_pattern))
        t.Policy.t_rows)
    tables

let suite =
  [
    test_differential;
    Alcotest.test_case "compilable majority" `Quick test_compilable_majority;
    test_per_switch_agreement;
    Alcotest.test_case "mismatched tables disagree" `Quick
      test_agreement_not_vacuous;
    test_first_match;
    Alcotest.test_case "a new destination adds one row per switch" `Quick
      test_new_destination_adds_one_row;
    Alcotest.test_case "firewall shape" `Quick test_firewall_shape;
    Alcotest.test_case "priorities above default" `Quick
      test_priorities_above_default;
    Alcotest.test_case "seq modify rewrites the copy" `Quick test_seq_modify;
    Alcotest.test_case "at scopes to one switch" `Quick test_at_scopes_to_switch;
    Alcotest.test_case "divergent multicast is uncompilable" `Quick
      test_uncompilable_multicast;
    Alcotest.test_case "pinned fields restore" `Quick test_pinned_field_restores;
    Alcotest.test_case "flow-mod diff" `Quick test_flow_mods_diff;
    Alcotest.test_case "patterns interned" `Quick test_patterns_interned;
  ]
