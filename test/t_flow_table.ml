open Openflow
open Netsim

let pkt = Packet.tcp ~src_host:1 ~dst_host:2 ()

let entry ?(priority = 100) ?(idle = 0) ?(hard = 0) ?(now = 0.) pattern actions
    =
  Flow_entry.make ~idle_timeout:idle ~hard_timeout:hard ~priority ~now pattern
    actions

let test_priority_order () =
  let t = Flow_table.create () in
  Flow_table.add t (entry ~priority:10 Ofp_match.any [ Action.Output 1 ]);
  Flow_table.add t (entry ~priority:200 (Ofp_match.make ~tp_dst:80 ()) [ Action.Output 2 ]);
  Flow_table.add t (entry ~priority:50 Ofp_match.any [ Action.Output 3 ]);
  match Flow_table.lookup t ~now:0. ~in_port:1 pkt with
  | Some e ->
      Alcotest.(check (list int)) "highest priority wins" [ 2 ]
        (Action.outputs e.Flow_entry.actions)
  | None -> Alcotest.fail "expected a match"

let test_add_replaces_twin () =
  let t = Flow_table.create () in
  let m = Ofp_match.make ~tp_dst:80 () in
  Flow_table.add t (entry ~priority:10 m [ Action.Output 1 ]);
  Flow_table.add t (entry ~priority:10 m [ Action.Output 9 ]);
  T_util.checki "one entry" 1 (Flow_table.size t);
  match Flow_table.entries t with
  | [ e ] ->
      Alcotest.(check (list int)) "replaced actions" [ 9 ]
        (Action.outputs e.Flow_entry.actions)
  | _ -> Alcotest.fail "expected exactly one entry"

let test_same_match_different_priority_coexist () =
  let t = Flow_table.create () in
  let m = Ofp_match.make ~tp_dst:80 () in
  Flow_table.add t (entry ~priority:10 m [ Action.Output 1 ]);
  Flow_table.add t (entry ~priority:20 m [ Action.Output 2 ]);
  T_util.checki "two entries" 2 (Flow_table.size t)

let test_modify_nonstrict_rewrites_subsumed () =
  let t = Flow_table.create () in
  Flow_table.add t
    (entry ~priority:10 (Ofp_match.make ~tp_dst:80 ()) [ Action.Output 1 ]);
  Flow_table.add t
    (entry ~priority:20 (Ofp_match.make ~tp_dst:443 ()) [ Action.Output 1 ]);
  let hit =
    Flow_table.modify t ~strict:false
      (Ofp_match.make ~tp_dst:80 ())
      ~priority:0 [ Action.Output 7 ]
  in
  T_util.checkb "modify hit" true hit;
  let outs =
    List.map
      (fun (e : Flow_entry.t) -> Action.outputs e.actions)
      (Flow_table.entries t)
  in
  Alcotest.(check (list (list int))) "only the port-80 entry rewritten"
    [ [ 1 ]; [ 7 ] ] outs

let test_modify_strict_needs_exact () =
  let t = Flow_table.create () in
  Flow_table.add t
    (entry ~priority:10 (Ofp_match.make ~tp_dst:80 ()) [ Action.Output 1 ]);
  T_util.checkb "strict with wrong priority misses" false
    (Flow_table.modify t ~strict:true
       (Ofp_match.make ~tp_dst:80 ())
       ~priority:11 [ Action.Output 2 ]);
  T_util.checkb "strict with exact identity hits" true
    (Flow_table.modify t ~strict:true
       (Ofp_match.make ~tp_dst:80 ())
       ~priority:10 [ Action.Output 2 ])

let test_modify_preserves_counters () =
  let t = Flow_table.create () in
  let e = entry ~priority:10 (Ofp_match.make ~tp_dst:80 ()) [ Action.Output 1 ] in
  Flow_table.add t e;
  Flow_entry.account e ~now:1. pkt;
  ignore
    (Flow_table.modify t ~strict:true
       (Ofp_match.make ~tp_dst:80 ())
       ~priority:10 [ Action.Output 2 ]);
  match Flow_table.entries t with
  | [ e' ] -> T_util.checki "counters preserved" 1 e'.Flow_entry.packet_count
  | _ -> Alcotest.fail "expected one entry"

let test_delete_nonstrict_wildcard () =
  let t = Flow_table.create () in
  Flow_table.add t (entry ~priority:10 (Ofp_match.make ~tp_dst:80 ()) [ Action.Output 1 ]);
  Flow_table.add t (entry ~priority:20 (Ofp_match.make ~tp_dst:443 ()) [ Action.Output 2 ]);
  Flow_table.add t (entry ~priority:30 (Ofp_match.make ~nw_proto:17 ()) [ Action.Output 3 ]);
  let gone = Flow_table.delete t ~strict:false Ofp_match.any ~priority:0 in
  T_util.checki "all three removed" 3 (List.length gone);
  T_util.checki "table empty" 0 (Flow_table.size t)

let test_delete_out_port_filter () =
  let t = Flow_table.create () in
  Flow_table.add t (entry ~priority:10 (Ofp_match.make ~tp_dst:80 ()) [ Action.Output 1 ]);
  Flow_table.add t (entry ~priority:20 (Ofp_match.make ~tp_dst:443 ()) [ Action.Output 2 ]);
  let gone = Flow_table.delete t ~strict:false ~out_port:2 Ofp_match.any ~priority:0 in
  T_util.checki "only the port-2 rule removed" 1 (List.length gone);
  T_util.checki "one rule left" 1 (Flow_table.size t)

let test_hard_timeout_expiry () =
  let t = Flow_table.create () in
  Flow_table.add t (entry ~hard:10 ~now:0. Ofp_match.any [ Action.Output 1 ]);
  T_util.checki "live before timeout" 0 (List.length (Flow_table.expire t ~now:9.9));
  let expired = Flow_table.expire t ~now:10. in
  T_util.checki "expired at timeout" 1 (List.length expired);
  (match expired with
  | [ (_, reason) ] ->
      T_util.checkb "hard reason" true (reason = Message.Removed_hard)
  | _ -> Alcotest.fail "one expiry expected");
  T_util.checki "gone from table" 0 (Flow_table.size t)

let test_idle_timeout_refreshes () =
  let t = Flow_table.create () in
  let e = entry ~idle:5 ~now:0. Ofp_match.any [ Action.Output 1 ] in
  Flow_table.add t e;
  (* Traffic at t=4 refreshes the idle timer. *)
  Flow_entry.account e ~now:4. pkt;
  T_util.checki "still live at t=8 (refreshed)" 0
    (List.length (Flow_table.expire t ~now:8.));
  T_util.checki "expired at t=9" 1 (List.length (Flow_table.expire t ~now:9.))

let test_expired_entries_do_not_match () =
  let t = Flow_table.create () in
  Flow_table.add t (entry ~hard:5 ~now:0. Ofp_match.any [ Action.Output 1 ]);
  T_util.checkb "matches while live" true
    (Flow_table.lookup t ~now:1. ~in_port:1 pkt <> None);
  T_util.checkb "dead entry ignored by lookup" true
    (Flow_table.lookup t ~now:10. ~in_port:1 pkt = None)

(* The first ask makes the ring and answers None. From then on each
   change records its pattern and an expiry records none; a clear, or more
   changes than the ring holds, answers None. *)
let test_changed_since () =
  let t = Flow_table.create () in
  let web = Ofp_match.make ~tp_dst:80 () and ssh = Ofp_match.make ~tp_dst:22 () in
  T_util.checkb "the first ask answers None" true
    (Flow_table.changed_since t ~gen:0 = None);
  let g0 = Flow_table.generation t in
  ignore
    (Flow_table.apply t ~now:0.
       (Message.flow_add ~hard_timeout:5 web [ Action.Output 1 ]));
  Flow_table.add t (entry ssh [ Action.Output 2 ]);
  T_util.checki "the timeout removes one" 1
    (List.length (Flow_table.expire t ~now:10.));
  T_util.checki "three changes" (g0 + 3) (Flow_table.generation t);
  (match Flow_table.changed_since t ~gen:g0 with
  | Some [ a; b ] ->
      T_util.checkb "the add's pattern, then the other's" true
        (Ofp_match.equal a web && Ofp_match.equal b ssh)
  | _ -> Alcotest.fail "expected the two adds' patterns");
  let g1 = Flow_table.generation t in
  T_util.checkb "nothing since now" true
    (Flow_table.changed_since t ~gen:g1 = Some []);
  Flow_table.clear t;
  T_util.checkb "past a clear: None" true
    (Flow_table.changed_since t ~gen:g1 = None);
  let g2 = Flow_table.generation t in
  for port = 1 to 40 do
    Flow_table.add t (entry (Ofp_match.make ~in_port:port ()) [ Action.Output 1 ])
  done;
  T_util.checkb "past the ring: None" true
    (Flow_table.changed_since t ~gen:g2 = None);
  match Flow_table.changed_since t ~gen:(Flow_table.generation t - 20) with
  | Some recent ->
      T_util.checkb "the last twenty adds" true
        (List.equal Ofp_match.equal recent
           (List.init 20 (fun i -> Ofp_match.make ~in_port:(21 + i) ())))
  | None -> Alcotest.fail "the ring reaches twenty changes back"

let prop_lookup_respects_priority =
  QCheck2.Test.make ~name:"lookup returns a maximal-priority match" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 10) (pair T_util.Gen.ofp_match (int_range 0 100)))
        (pair T_util.Gen.packet (int_range 1 8)))
    (fun (rules, (p, in_port)) ->
      let t = Flow_table.create () in
      List.iter
        (fun (m, priority) ->
          Flow_table.add t (entry ~priority m [ Action.Output 1 ]))
        rules;
      match Flow_table.lookup t ~now:0. ~in_port p with
      | None ->
          (* Then no rule matches at all. *)
          List.for_all
            (fun (e : Flow_entry.t) ->
              not (Flow_entry.matches e ~in_port p))
            (Flow_table.entries t)
      | Some e ->
          Flow_entry.matches e ~in_port p
          && List.for_all
               (fun (o : Flow_entry.t) ->
                 (not (Flow_entry.matches o ~in_port p))
                 || o.priority <= e.priority)
               (Flow_table.entries t))

let prop_delete_then_absent =
  QCheck2.Test.make ~name:"deleted rules stop matching" ~count:200
    QCheck2.Gen.(list_size (int_range 1 8) T_util.Gen.ofp_match)
    (fun patterns ->
      let t = Flow_table.create () in
      List.iteri
        (fun i m -> Flow_table.add t (entry ~priority:i m [ Action.Output 1 ]))
        patterns;
      ignore (Flow_table.delete t ~strict:false Ofp_match.any ~priority:0);
      Flow_table.size t = 0)

let suite =
  [
    Alcotest.test_case "priority ordering" `Quick test_priority_order;
    Alcotest.test_case "add replaces identical rule" `Quick test_add_replaces_twin;
    Alcotest.test_case "priorities coexist" `Quick test_same_match_different_priority_coexist;
    Alcotest.test_case "non-strict modify" `Quick test_modify_nonstrict_rewrites_subsumed;
    Alcotest.test_case "strict modify" `Quick test_modify_strict_needs_exact;
    Alcotest.test_case "modify keeps counters" `Quick test_modify_preserves_counters;
    Alcotest.test_case "wildcard delete" `Quick test_delete_nonstrict_wildcard;
    Alcotest.test_case "delete out_port filter" `Quick test_delete_out_port_filter;
    Alcotest.test_case "hard timeout" `Quick test_hard_timeout_expiry;
    Alcotest.test_case "idle timeout refresh" `Quick test_idle_timeout_refreshes;
    Alcotest.test_case "expired entries don't match" `Quick test_expired_entries_do_not_match;
    Alcotest.test_case "changed_since reads the change ring" `Quick test_changed_since;
    QCheck_alcotest.to_alcotest prop_lookup_respects_priority;
    QCheck_alcotest.to_alcotest prop_delete_then_absent;
  ]
