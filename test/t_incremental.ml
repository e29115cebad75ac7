module App_sig = Controller.App_sig
(* The incremental invariant checker must be observationally equal to the
   full checker — same violations, same order — no matter what happened to
   the network since its caches were last valid. The property below drives
   both through arbitrary flow-mod / port-mod / fault / clock sequences;
   the unit tests pin the invalidation paths that are easy to get wrong
   (reboots, flow timeouts, partition + resync, hypothetical-overlay
   pollution). *)

open Openflow
open Netsim
module Checker = Invariants.Checker
module Snapshot = Invariants.Snapshot
module Incremental = Invariants.Incremental
module Runtime = Legosdn.Runtime
module Metrics = Legosdn.Metrics

let mac = Types.mac_of_host

(* Small vocabularies keep collisions (same rule re-added, deletes that
   actually hit, rules shadowing each other) frequent. Port 77 is unwired
   on every generated topology, so black holes appear regularly. The
   rewriting actions make a hop's header differ from the canonical probe
   (which is untagged, with TCP destination port 80), and the patterns on
   port 443 and on the VLAN match only such rewritten headers — or, for
   the explicitly untagged one, only headers no rewrite has tagged. *)
let patterns =
  [|
    Ofp_match.any;
    Ofp_match.make ~dl_dst:(mac 1) ();
    Ofp_match.make ~dl_dst:(mac 2) ();
    Ofp_match.make ~dl_dst:(mac 3) ();
    Ofp_match.make ~tp_dst:80 ();
    Ofp_match.make ~dl_dst:(mac 2) ~tp_dst:80 ();
    Ofp_match.make ~tp_dst:443 ();
    Ofp_match.make ~dl_vlan:(Some 5) ();
    Ofp_match.make ~dl_vlan:None ();
  |]

let rewrite_sets =
  [|
    [ Action.Set_dl_dst (mac 3); Action.Output 1 ];
    [ Action.Set_tp_dst 443; Action.Output 2 ];
    [ Action.Set_vlan 5; Action.Output 1 ];
    [ Action.Strip_vlan; Action.Output 2 ];
    [ Action.Set_vlan 5; Action.Output Types.port_flood ];
  |]

let action_sets =
  Array.append
    [|
      [ Action.Output 1 ];
      [ Action.Output 2 ];
      [ Action.Output 100 ];
      [ Action.Output 77 ];
      [];
      [ Action.Output Types.port_flood ];
    |]
    rewrite_sets

let pick a = QCheck2.Gen.int_bound (Array.length a - 1)

let priorities = [| 10; Message.default_priority; 65000 |]
let timeouts = [| 0; 1; 3 |]

type op =
  | Flow of int * Message.flow_mod
  | Port_mod of int * Message.port_mod
  | Fault of Net.fault
  | Advance of float
  | Inject of Topology.host * Topology.host

let gen_install_of actions =
  QCheck2.Gen.(
    map
      (fun (sid, (p, a), (prio, (idle, hard))) ->
        Flow
          ( sid,
            Message.flow_add
              ~idle_timeout:timeouts.(idle) ~hard_timeout:timeouts.(hard)
              ~priority:priorities.(prio) patterns.(p) actions.(a) ))
      (triple (int_range 1 3)
         (pair (pick patterns) (pick actions))
         (pair (pick priorities) (pair (pick timeouts) (pick timeouts)))))

let gen_install = gen_install_of action_sets

let gen_delete =
  QCheck2.Gen.(
    map
      (fun (sid, p, strict) ->
        Flow (sid, Message.flow_delete ~strict patterns.(p)))
      (triple (int_range 1 3) (pick patterns) bool))

let gen_op =
  QCheck2.Gen.(
    frequency
      [
        (6, gen_install);
        (2, gen_delete);
        ( 1,
          map
            (fun (s, p, on) ->
              Port_mod (s, { Message.pm_port_no = p; pm_no_flood = on }))
            (triple (int_range 1 3) (int_range 1 3) bool) );
        (1, map (fun s -> Fault (Net.Switch_down s)) (int_range 1 3));
        (1, map (fun s -> Fault (Net.Switch_up s)) (int_range 1 3));
        ( 1,
          map
            (fun (s, p) -> Fault (Net.Port_down (s, p)))
            (pair (int_range 1 3) (oneofl [ 1; 2; 100 ])) );
        ( 1,
          map
            (fun (s, p) -> Fault (Net.Port_up (s, p)))
            (pair (int_range 1 3) (oneofl [ 1; 2; 100 ])) );
        (2, map (fun d -> Advance (float_of_int d *. 0.7)) (int_range 0 5));
        (2, map (fun (s, d) -> Inject (s, d)) (pair (int_range 1 3) (int_range 1 3)));
      ])

let apply_op net clock = function
  | Flow (sid, fm) ->
      ignore (Net.send net sid (Message.message (Message.Flow_mod fm)))
  | Port_mod (sid, pm) ->
      ignore (Net.send net sid (Message.message (Message.Port_mod pm)))
  | Fault f -> Net.apply_fault net f
  | Advance d -> Clock.advance_by clock d
  | Inject (src, dst) -> Net.inject net src (Checker.canonical_packet src dst)

(* Invariants chosen to exercise every probe consumer: pair traces (loops,
   black holes, reachability, isolation) and rule scans (drop-all). The
   reachability list also names a pair with a host the topology lacks and
   a host paired with itself: neither is a host pair, so neither may leak
   into the loop and black-hole checks. *)
let invs =
  [
    Checker.Loop_freedom;
    Checker.Black_hole_freedom;
    Checker.No_drop_all;
    Checker.Pairwise_reachability [ (1, 3); (3, 1); (1, 9); (2, 2) ];
    Checker.Isolation { group_a = [ 1 ]; group_b = [ 3 ] };
  ]

let make_net ring =
  let clock = Clock.create () in
  let topo =
    if ring then Topo_gen.ring ~hosts_per_switch:1 3
    else Topo_gen.linear ~hosts_per_switch:1 3
  in
  let net = Net.create clock topo in
  ignore (Net.poll net);
  (clock, net)

(* The engine persists across the whole sequence — precisely what Crash-Pad
   does across transactions — while the reference checker re-freezes the
   world at every step. *)
let prop_check_equiv =
  QCheck2.Test.make
    ~name:"incremental check = full check across arbitrary sequences"
    ~count:500
    QCheck2.Gen.(pair bool (list_size (int_range 1 12) gen_op))
    (fun (ring, ops) ->
      let clock, net = make_net ring in
      let eng = Incremental.create net in
      List.for_all
        (fun op ->
          apply_op net clock op;
          Incremental.check ~invariants:invs eng
          = Checker.check ~invariants:invs (Snapshot.of_net net))
        ops)

(* PR 3's equivalence property must survive eviction: with a budget small
   enough to thrash, every evicted line is simply re-traced from current
   state on its next use, so the answers cannot drift. *)
let prop_check_equiv_under_eviction =
  QCheck2.Test.make
    ~name:"incremental check = full check under trace-cache eviction"
    ~count:250
    QCheck2.Gen.(pair bool (list_size (int_range 1 12) gen_op))
    (fun (ring, ops) ->
      let clock, net = make_net ring in
      let observed = ref 0 in
      let observer = function
        | Incremental.Trace_evicted _ -> incr observed
        | _ -> ()
      in
      let eng = Incremental.create ~observer ~trace_cache_budget:2048 net in
      List.for_all
        (fun op ->
          apply_op net clock op;
          Incremental.check ~invariants:invs eng
          = Checker.check ~invariants:invs (Snapshot.of_net net))
        ops
      && (Incremental.stats eng).Incremental.evictions = !observed)

let gen_mod_of install =
  QCheck2.Gen.(
    map
      (fun (sid, op) ->
        match op with
        | Flow (_, fm) -> (sid, fm)
        | _ -> assert false)
      (pair (int_range 1 3) (frequency [ (3, install); (1, gen_delete) ])))

let gen_mod = gen_mod_of gen_install

let prop_flow_mods_equiv =
  QCheck2.Test.make
    ~name:"incremental check_flow_mods = full differential check" ~count:500
    QCheck2.Gen.(
      triple bool
        (list_size (int_range 0 8) gen_op)
        (list_size (int_range 1 3) gen_mod))
    (fun (ring, ops, mods) ->
      let clock, net = make_net ring in
      let eng = Incremental.create net in
      List.iter (apply_op net clock) ops;
      (* Warm the persistent cache first, as a previous transaction would
         have; the hypothetical pass must not be disturbed by (or disturb)
         it. *)
      ignore (Incremental.check ~invariants:invs eng);
      Incremental.check_flow_mods ~invariants:invs eng mods
      = Checker.check_flow_mods ~invariants:invs (Snapshot.of_net net) mods)

(* Several screens against one persistent engine, each after a few live
   changes, every one compared with the full differential on a fresh
   snapshot. There is no warm-up check: the first screen starts cold, and
   later ones find the lines that the live changes dropped pending. *)
let gen_rounds mod_gen =
  QCheck2.Gen.(
    pair bool
      (list_size (int_range 1 5)
         (pair
            (list_size (int_range 0 4) gen_op)
            (list_size (int_range 1 3) mod_gen))))

let screens_agree eng net clock rounds =
  List.for_all
    (fun (ops, mods) ->
      List.iter (apply_op net clock) ops;
      Incremental.check_flow_mods ~invariants:invs eng mods
      = Checker.check_flow_mods ~invariants:invs (Snapshot.of_net net) mods)
    rounds

(* The screen skips a pair only when no mod matches the header its trace
   carries at a modified switch. Mods that rewrite headers make that
   header differ from the canonical probe downstream of the rewrite. *)
let prop_flow_mods_equiv_rewrites =
  QCheck2.Test.make
    ~name:"rewrite screens = full differential" ~count:300
    (gen_rounds (gen_mod_of (gen_install_of rewrite_sets)))
    (fun (ring, rounds) ->
      let clock, net = make_net ring in
      screens_agree (Incremental.create net) net clock rounds)

(* A budget small enough to thrash evicts lines in the middle of a screen:
   an evicted pair becomes pending and the screen keeps its probe. *)
let prop_flow_mods_equiv_under_budget =
  QCheck2.Test.make
    ~name:"2 KiB budget screens = full differential" ~count:250
    (gen_rounds gen_mod)
    (fun (ring, rounds) ->
      let clock, net = make_net ring in
      let observed = ref 0 in
      let observer = function
        | Incremental.Trace_evicted _ -> incr observed
        | _ -> ()
      in
      let eng = Incremental.create ~observer ~trace_cache_budget:2048 net in
      screens_agree eng net clock rounds
      && (Incremental.stats eng).Incremental.evictions = !observed)

(* -- unit tests ---------------------------------------------------------- *)

let test_eviction_bounds_cache () =
  let clock, net = make_net true in
  ignore clock;
  let evicted = ref 0 in
  let reported = ref max_int in
  let observer = function
    | Incremental.Trace_evicted { bytes } ->
        incr evicted;
        reported := bytes
    | _ -> ()
  in
  let budget = 512 in
  let eng = Incremental.create ~observer ~trace_cache_budget:budget net in
  for i = 1 to 30 do
    ignore
      (Net.send net
         ((i mod 3) + 1)
         (Message.message
            (Message.Flow_mod
               (Message.flow_add ~priority:(10 + i)
                  patterns.(i mod Array.length patterns)
                  [ Action.Output ((i mod 2) + 1) ]))));
    T_util.checkb "equivalence under eviction" true
      (Incremental.check ~invariants:invs eng
      = Checker.check ~invariants:invs (Snapshot.of_net net))
  done;
  T_util.checkb "budget forced evictions" true (!evicted > 0);
  T_util.checki "stats agree with observer" !evicted
    (Incremental.stats eng).Incremental.evictions;
  T_util.checkb "event reports post-eviction size" true
    (!reported = Incremental.cache_bytes eng || !reported <= budget);
  T_util.checkb "cache never empty" true (Incremental.cache_lines eng >= 1)

let install net sid ?(priority = Message.default_priority) ?(idle = 0)
    pattern actions =
  ignore
    (Net.send net sid
       (Message.message
          (Message.Flow_mod
             (Message.flow_add ~idle_timeout:idle ~priority pattern actions))))

let check_agrees msg eng net =
  T_util.checkb msg true
    (Incremental.check ~invariants:invs eng
    = Checker.check ~invariants:invs (Snapshot.of_net net))

let to_h3 = Ofp_match.make ~dl_dst:(mac 3) ()

(* The linear fabric with one rule per switch for the probes towards h3. *)
let path_to_h3 () =
  let _, net = make_net false in
  install net 1 to_h3 [ Action.Output 1 ];
  install net 2 to_h3 [ Action.Output 2 ];
  install net 3 to_h3 [ Action.Output 100 ];
  net

(* The host pairs whose trace on the engine's snapshot visits [sid]. *)
let pairs_through eng net sid =
  List.filter
    (fun (src, dst) ->
      List.exists
        (fun (s, _, _) -> s = sid)
        (Snapshot.trace (Incremental.snapshot eng) src
           (Checker.canonical_packet src dst))
          .Snapshot.path)
    (Checker.host_pairs (Net.topology net))

let test_warm_cache_hits () =
  let _, net = make_net false in
  install net 1 (Ofp_match.make ~dl_dst:(mac 2) ()) [ Action.Output 1 ];
  let eng = Incremental.create net in
  check_agrees "first (cold) check agrees" eng net;
  let cold = Incremental.stats eng in
  T_util.checkb "cold check traced pairs" true (cold.Incremental.misses > 0);
  (* An untouched network: the whole previous result is still valid. *)
  check_agrees "second (warm) check agrees" eng net;
  let warm = Incremental.stats eng in
  T_util.checki "warm check was memoized wholesale" 1
    warm.Incremental.memoized_checks;
  T_util.checki "warm check traced nothing" cold.Incremental.misses
    warm.Incremental.misses;
  T_util.checki "warm check recaptured nothing" cold.Incremental.recaptures
    warm.Incremental.recaptures;
  (* Touch one switch: only traces through it re-run; the rest are served
     from the per-pair cache. *)
  install net 1 (Ofp_match.make ~dl_dst:(mac 3) ()) [ Action.Output 1 ];
  check_agrees "third (partially dirty) check agrees" eng net;
  let dirty = Incremental.stats eng in
  T_util.checkb "unaffected traces reused" true
    (dirty.Incremental.hits > warm.Incremental.hits);
  T_util.checkb "stale traces re-run" true
    (dirty.Incremental.invalidations > warm.Incremental.invalidations)

let test_switch_reboot_invalidates () =
  let net = path_to_h3 () in
  let eng = Incremental.create net in
  check_agrees "warmed" eng net;
  Net.apply_fault net (Net.Switch_down 2);
  check_agrees "agrees while switch down" eng net;
  Net.apply_fault net (Net.Switch_up 2);
  (* The reboot emptied s2's table: cached traces through it must die. *)
  check_agrees "agrees after reboot" eng net;
  let s = Incremental.stats eng in
  T_util.checkb "reboot invalidated cached traces" true
    (s.Incremental.invalidations > 0);
  T_util.checkb "reboot re-captured the switch" true
    (s.Incremental.recaptures > 0)

let test_flow_timeout_invalidates () =
  let clock, net = make_net false in
  install net 1 ~idle:1 (Ofp_match.make ~dl_dst:(mac 3) ()) [ Action.Output 1 ];
  install net 2 ~idle:1 (Ofp_match.make ~dl_dst:(mac 3) ()) [ Action.Output 2 ];
  install net 3 ~idle:1 (Ofp_match.make ~dl_dst:(mac 3) ()) [ Action.Output 100 ];
  let eng = Incremental.create net in
  check_agrees "path up while rules live" eng net;
  (* No flow-mod, no fault: only the clock moves. The engine must notice
     the idle expiry on its own (each line's expiry) — a version-only
     scheme would serve the stale reachable trace here. *)
  Clock.advance_by clock 5.0;
  check_agrees "agrees after idle expiry" eng net;
  T_util.checkb "expiry made the pair unreachable" true
    (List.exists
       (function Checker.Unreachable _ -> true | _ -> false)
       (Incremental.check ~invariants:invs eng))

let test_hypothetical_mods_do_not_pollute () =
  let net = path_to_h3 () in
  let eng = Incremental.create net in
  check_agrees "warmed" eng net;
  let harmful = [ (2, Message.flow_delete to_h3) ] in
  T_util.checkb "hypothetical delete flagged" true
    (Incremental.check_flow_mods ~invariants:invs eng harmful <> []);
  (* The overlay trace (unreachable) must not have replaced the persistent
     one: the live network still has the rule. *)
  check_agrees "persistent cache untouched by overlay" eng net;
  T_util.checkb "live 1->3 path still clean" true
    (not
       (List.exists
          (function
            | Checker.Unreachable { src = 1; dst = 3 } -> true
            | _ -> false)
          (Incremental.check ~invariants:invs eng)))

(* The screen re-traces only pairs whose trace a mod can change. A
   microflow rule — exact match on a TCP source port no probe uses —
   matches no probe's header, so nothing is re-traced; a rule on the same
   switch that matches the probes towards h3 re-traces exactly the pairs
   whose trace reaches that switch towards h3. *)
let test_screen_retraces_matched_pairs () =
  let net = path_to_h3 () in
  let eng = Incremental.create net in
  check_agrees "warmed" eng net;
  let screen mods =
    let before = Incremental.stats eng in
    T_util.checkb "screen = full differential" true
      (Incremental.check_flow_mods ~invariants:invs eng mods
      = Checker.check_flow_mods ~invariants:invs (Snapshot.of_net net) mods);
    let after = Incremental.stats eng in
    after.Incremental.misses - before.Incremental.misses
  in
  let microflow =
    Ofp_match.exact ~in_port:1
      (Packet.tcp ~src_host:1 ~dst_host:3 ~sport:40000 ())
  in
  T_util.checki "exact install re-traces nothing" 0
    (screen [ (2, Message.flow_add ~priority:100 microflow [ Action.Output 2 ]) ]);
  let through_s2_to_h3 =
    List.filter (fun (_, dst) -> dst = 3) (pairs_through eng net 2)
  in
  T_util.checki "two pairs reach s2 towards h3" 2 (List.length through_s2_to_h3);
  T_util.checki "overlapping install re-traces exactly those pairs"
    (List.length through_s2_to_h3)
    (screen
       [ (2, Message.flow_add ~priority:100 to_h3 [ Action.Output 77 ]) ])

(* Committing a rule re-captures its switch, but drops only the lines the
   rule's pattern matches at a hop there. After a committed microflow rule
   the next screen traces nothing and every line through s2 is still
   resident; after a committed rule matching the probes towards h3,
   exactly the lines that reach s2 towards h3 are gone. *)
let test_recapture_keeps_unmatched_lines () =
  let net = path_to_h3 () in
  let eng = Incremental.create net in
  check_agrees "warmed" eng net;
  let resident = Incremental.cache_lines eng in
  let through_s2 = pairs_through eng net 2 in
  let screen_and_commit fm =
    T_util.checkb "screen = full differential" true
      (Incremental.check_flow_mods ~invariants:invs eng [ (2, fm) ]
      = Checker.check_flow_mods ~invariants:invs (Snapshot.of_net net)
          [ (2, fm) ]);
    ignore (Net.send net 2 (Message.message (Message.Flow_mod fm)))
  in
  let microflow =
    Message.flow_add ~priority:100
      (Ofp_match.exact ~in_port:1
         (Packet.tcp ~src_host:1 ~dst_host:3 ~sport:40000 ()))
      [ Action.Output 2 ]
  in
  screen_and_commit microflow;
  let before = Incremental.stats eng in
  screen_and_commit microflow;
  let after = Incremental.stats eng in
  T_util.checki "the re-capture of s2 re-traced nothing"
    before.Incremental.misses after.Incremental.misses;
  T_util.checki "the re-capture of s2 dropped nothing"
    before.Incremental.invalidations after.Incremental.invalidations;
  T_util.checkb "s2 was re-captured" true
    (after.Incremental.recaptures > before.Incremental.recaptures);
  T_util.checkb "lines reach s2" true (through_s2 <> []);
  T_util.checki "every line still resident" resident
    (Incremental.cache_lines eng);
  let towards_h3 = List.filter (fun (_, dst) -> dst = 3) through_s2 in
  T_util.checki "two lines reach s2 towards h3" 2 (List.length towards_h3);
  ignore
    (Net.send net 2
       (Message.message
          (Message.Flow_mod (Message.flow_add ~priority:100 to_h3 [ Action.Output 2 ]))));
  Incremental.refresh eng;
  let dropped = Incremental.stats eng in
  T_util.checki "exactly the lines towards h3 through s2 dropped"
    (List.length towards_h3)
    (dropped.Incremental.invalidations - after.Incremental.invalidations);
  T_util.checki "the rest stay resident"
    (resident - List.length towards_h3)
    (Incremental.cache_lines eng);
  check_agrees "agrees after the re-capture" eng net

(* Partition, degrade, heal: the reliable layer replays shadow intent into
   the rebooted switch (PR "Reliable resync"); the runtime's engine must
   track every one of those writes and agree with a fresh full check at
   each stage. *)
let test_partition_heal_resync_equivalence () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
  let rt = Runtime.create net [ (App_sig.app (module Apps.Learning_switch)) ] in
  let eng = Runtime.incremental rt in
  Runtime.step rt;
  List.iter
    (fun (src, dst) ->
      Clock.advance_by clock 0.05;
      Net.inject net src (Packet.tcp ~src_host:src ~dst_host:dst ());
      Runtime.step rt)
    [ (1, 3); (3, 1); (1, 3); (3, 1) ];
  T_util.checkb "path warmed" true (T_util.reachable net 1 3);
  check_agrees "agrees on warmed path" eng net;
  Net.apply_fault net (Net.Switch_down 2);
  Runtime.step rt;
  check_agrees "agrees while switch down" eng net;
  Net.apply_fault net (Net.Switch_up 2);
  Runtime.step rt;
  (* Resync replays the learned rules into the empty rebooted table via
     the control channel, not via apply_fault — exactly the kind of write
     the version counters must pick up. *)
  T_util.checkb "resync repaired the path" true (T_util.reachable net 1 3);
  check_agrees "agrees after resync replay" eng net;
  T_util.checkb "metrics saw cache traffic" true
    (Metrics.(get (Runtime.metrics rt) inv_hits)
     + Metrics.(get (Runtime.metrics rt) inv_misses)
    > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_check_equiv;
    QCheck_alcotest.to_alcotest prop_flow_mods_equiv;
    QCheck_alcotest.to_alcotest prop_flow_mods_equiv_rewrites;
    QCheck_alcotest.to_alcotest prop_flow_mods_equiv_under_budget;
    Alcotest.test_case "screen re-traces only matched pairs" `Quick
      test_screen_retraces_matched_pairs;
    Alcotest.test_case "a re-capture keeps lines no change matches" `Quick
      test_recapture_keeps_unmatched_lines;
    Alcotest.test_case "warm cache reuses traces" `Quick test_warm_cache_hits;
    Alcotest.test_case "switch reboot invalidates" `Quick
      test_switch_reboot_invalidates;
    Alcotest.test_case "flow timeout invalidates" `Quick
      test_flow_timeout_invalidates;
    Alcotest.test_case "hypothetical mods do not pollute" `Quick
      test_hypothetical_mods_do_not_pollute;
    QCheck_alcotest.to_alcotest prop_check_equiv_under_eviction;
    Alcotest.test_case "eviction keeps cache bounded and honest" `Quick
      test_eviction_bounds_cache;
    Alcotest.test_case "partition-heal resync equivalence" `Quick
      test_partition_heal_resync_equivalence;
  ]
