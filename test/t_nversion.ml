(* The N-version voting layer: election rules (canonical vote keys,
   first-arrival tie-break), the runtime-level sandboxed panel (byzantine
   output masked before it reaches the network, a crashing variant
   masked, a bundle that fails only when the vote cannot mask, MORPH-style
   adaptive shed/grow), and the differential property: a panel of three
   identical healthy variants is observationally equivalent to the solo
   app. *)

open Openflow
module App_sig = Controller.App_sig
module Event = Controller.Event
module Command = Controller.Command
module Runtime = Legosdn.Runtime
module Voter = Legosdn.Voter
module Metrics = Legosdn.Metrics
module Bug_model = Apps.Bug_model
module Recovery_policy = Legosdn.Recovery_policy
module Runner = Check.Runner
module Spec = Check.Spec
module SGen = Check.Gen
module Clock = Netsim.Clock
module Net = Netsim.Net
module Topo_gen = Netsim.Topo_gen
module Topology = Netsim.Topology

let packet_in ?(sid = 1) src dst =
  Event.Packet_in
    ( sid,
      {
        Message.pi_buffer_id = None;
        pi_in_port = 100;
        pi_reason = Message.No_match;
        pi_packet = T_util.tcp_packet src dst;
      } )

let flow sid out =
  Command.install sid (Ofp_match.make ~tp_dst:80 ()) [ Action.Output out ]

(* ------------------------------------------------------------------ *)
(* Election rules *)

let test_canonical_strips_log () =
  let cmds = [ Command.Log "diag"; flow 1 2; Command.Log "more" ] in
  Alcotest.(check int) "only the flow survives" 1
    (List.length (Voter.canonical cmds));
  T_util.checkb "pure-log ballot has an empty key" true
    (Voter.canonical [ Command.Log "x" ] = [])

let ballot voter commands = { Voter.voter; commands }

let test_first_arrival_tie_break () =
  (* Two equal-sized groups: the earliest-arrived group must win. *)
  let e =
    match
      Voter.elect
        [
          ballot 1 [ flow 1 2 ];
          ballot 2 [ flow 1 9 ];
          ballot 3 [ flow 1 9 ];
          ballot 4 [ flow 1 2 ];
        ]
    with
    | Some e -> e
    | None -> Alcotest.fail "election expected"
  in
  Alcotest.(check (list int)) "first-arrived group wins the tie" [ 1; 4 ]
    (List.map (fun b -> b.Voter.voter) e.Voter.winners);
  T_util.checkb "a 2-of-4 tie is not a majority" false e.Voter.majority

let test_log_only_divergence_is_unanimous () =
  (* Variants that differ only in diagnostics cast the same vote. *)
  let e =
    match
      Voter.elect
        [
          ballot 1 [ flow 1 2 ];
          ballot 2 [ Command.Log "chatty"; flow 1 2 ];
        ]
    with
    | Some e -> e
    | None -> Alcotest.fail "election expected"
  in
  T_util.checkb "no losers" true (e.Voter.losers = []);
  T_util.checkb "unanimous majority" true e.Voter.majority

let test_majority_wins () =
  let e =
    match
      Voter.elect
        [ ballot 1 [ flow 1 9 ]; ballot 2 [ flow 1 2 ]; ballot 3 [ flow 1 2 ] ]
    with
    | Some e -> e
    | None -> Alcotest.fail "election expected"
  in
  Alcotest.(check (list int)) "2-of-3 wins" [ 2; 3 ]
    (List.map (fun b -> b.Voter.voter) e.Voter.winners);
  Alcotest.(check (list int)) "divergent voter loses" [ 1 ]
    (List.map (fun b -> b.Voter.voter) e.Voter.losers);
  T_util.checkb "majority" true e.Voter.majority

(* ------------------------------------------------------------------ *)
(* The runtime-level sandboxed panel *)

let byz_bug =
  Bug_model.make (Bug_model.On_kind Event.K_packet_in) Bug_model.Byzantine_blackhole

let panel_config ?(adaptive = false) ?(shed_after = 8)
    ?(policy = Recovery_policy.Equivalence) n =
  {
    Runtime.default_config with
    Runtime.crashpad =
      {
        Runtime.default_config.Runtime.crashpad with
        Legosdn.Crashpad.policy = Recovery_policy.uniform policy;
      };
    Runtime.nversion =
      Some
        {
          Voter.nv_replicas = n;
          nv_adaptive = adaptive;
          nv_shed_after = shed_after;
        };
  }

let inject_pairs net clock rt n =
  let hosts = Topology.hosts (Net.topology net) in
  let k = List.length hosts in
  for i = 0 to n - 1 do
    Clock.advance_by clock 0.05;
    let src = List.nth hosts (i mod k) in
    let dst = List.nth hosts ((i + 1) mod k) in
    Net.inject net src (Packet.tcp ~src_host:src ~dst_host:dst ~dport:80 ());
    Runtime.step rt
  done

let hub = App_sig.app (module Apps.Hub)
let on_packet_in = Bug_model.make (Bug_model.On_kind Event.K_packet_in)

(* A linear-3 runtime whose one app runs as a panel of these variants
   (primary first), stepped once so every switch is connected. *)
let panel ?(config = panel_config 3) variants =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
  let rt =
    Runtime.create ~config
      ~nv_variants:(fun _ -> Some variants)
      net [ fst (List.hd variants) ]
  in
  Runtime.step rt;
  (clock, net, rt)

let entries net sid =
  Netsim.Flow_table.entries (Net.switch net sid).Netsim.Sw.table

(* A seated byzantine variant is outvoted on every packet-in, its
   blackhole rule never reaches a switch, and no failure is counted —
   masking is silent, not a Crash-Pad resolution. *)
let test_byzantine_variant_masked () =
  let byz = Apps.Faulty.wrap ~bug:byz_bug hub in
  let clock, net, rt = panel [ (hub, true); (hub, true); (byz, false) ] in
  inject_pairs net clock rt 6;
  let m = Runtime.metrics rt in
  T_util.checkb "panel voted" true (Metrics.(get m nv_events) >= 6);
  T_util.checkb "byzantine output masked" true (Metrics.(get m nv_masked) >= 1);
  T_util.checkb "outvoted at least once per masked event" true
    (Metrics.(get m nv_outvoted) >= Metrics.(get m nv_masked));
  T_util.checki "masking is not a counted failure" 0 Metrics.(get m crashes);
  T_util.checki "masking files no ticket" 0
    (List.length (Runtime.tickets rt));
  List.iter
    (fun sid ->
      List.iter
        (fun (e : Netsim.Flow_entry.t) ->
          T_util.checkb "no byzantine rule reached the network" true
            (e.Netsim.Flow_entry.priority <> 65000))
        (entries net sid))
    (Topology.switches (Net.topology net))

(* A crashing variant is a casualty, not a bundle failure: the healthy
   majority commits, the casualty is recovered and re-synced. *)
let test_variant_crash_is_masked () =
  let crash = Apps.Faulty.wrap ~bug:(on_packet_in Bug_model.Crash) hub in
  let clock, net, rt = panel [ (hub, true); (hub, true); (crash, false) ] in
  inject_pairs net clock rt 4;
  let m = Runtime.metrics rt in
  T_util.checkb "variant crashes recorded" true
    (Metrics.(get m nv_variant_crashes) >= 1);
  T_util.checki "no bundle failure" 0 Metrics.(get m crashes);
  T_util.checkb "hub still forwarded traffic" true
    ((Net.stats net).Net.delivered > 0)

(* Every variant dies on the event: the vote cannot mask, so the bundle
   fails exactly once — one counted crash, one ticket — and every variant
   is restored from its checkpoint. *)
let test_every_variant_crashes () =
  let crash = Apps.Faulty.wrap ~bug:(on_packet_in Bug_model.Crash) hub in
  let clock, net, rt =
    panel ~config:(panel_config ~policy:Recovery_policy.Absolute 3)
      [ (crash, true); (crash, true); (crash, true) ]
  in
  let tracer = Obs.Tracer.create ~capacity:4096 ~now:(fun () -> 0.) () in
  Runtime.set_tracer rt tracer;
  inject_pairs net clock rt 1;
  let m = Runtime.metrics rt in
  T_util.checki "one counted crash" 1 Metrics.(get m crashes);
  T_util.checki "one ticket" 1 (List.length (Runtime.tickets rt));
  T_util.checki "no crash was masked" 0 Metrics.(get m nv_variant_crashes);
  T_util.checki "every variant recovered" 3
    (List.length
       (List.filter
          (fun (s : Obs.Span.t) -> s.Obs.Span.kind = Obs.Span.Ckpt_restore)
          (Obs.Tracer.spans tracer)))

(* Routes h1's traffic at its own priority: two of these disagree, yet
   neither output is harmful. *)
let route_to_h1 priority =
  App_sig.app
    (module struct
      type state = unit

      let name = "router"
      let subscriptions = [ Event.K_packet_in ]
      let init () = ()

      let handle _ () = function
        | Event.Packet_in (sid, _) ->
            let h1 = Ofp_match.make ~dl_dst:(Types.mac_of_host 1) () in
            ((), [ Command.install ~priority sid h1 [ Action.Output 100 ] ])
        | _ -> ((), [])
    end : App_sig.APP)

(* A 1-1 split has no majority: it is counted, and the first-arrived
   (primary) output commits. *)
let test_two_variant_split () =
  let _, net, rt =
    panel ~config:(panel_config 2)
      [ (route_to_h1 10, true); (route_to_h1 20, false) ]
  in
  Runtime.dispatch_event rt (packet_in 1 2);
  T_util.checki "no majority counted" 1
    Metrics.(get (Runtime.metrics rt) nv_no_majority);
  Alcotest.(check (list int)) "the first-arrival rule landed" [ 10 ]
    (List.map (fun (e : Netsim.Flow_entry.t) -> e.priority) (entries net 1))

(* The majority agrees on a looping rule: the vote cannot mask it, so the
   invariant screen refuses the elected output — one byzantine failure,
   one ticket, and no rule reaches a switch. *)
let test_majority_loop_blocked () =
  let loop = Apps.Faulty.wrap ~bug:(on_packet_in Bug_model.Byzantine_loop) hub in
  let clock, net, rt =
    panel ~config:(panel_config ~policy:Recovery_policy.Absolute 3)
      [ (loop, true); (loop, true); (hub, false) ]
  in
  inject_pairs net clock rt 1;
  let m = Runtime.metrics rt in
  T_util.checki "one byzantine failure" 1 Metrics.(get m byzantine);
  T_util.checki "one ticket" 1 (List.length (Runtime.tickets rt));
  T_util.checkb "no rule landed" true
    (List.for_all
       (fun sid -> entries net sid = [])
       (Topology.switches (Net.topology net)))

(* MORPH: a clean panel sheds to the primary; a failure in shed mode
   re-spins the full panel. *)
let test_adaptive_shed_and_grow () =
  (* Healthy for the first three packet-ins, then crashes once: the
     panel sheds after two clean votes, so the 4th packet-in crashes the
     primary while it runs alone. *)
  let flaky =
    Apps.Faulty.wrap
      ~bug:(Bug_model.make (Bug_model.On_nth_of_kind (Event.K_packet_in, 4)) Bug_model.Crash)
      hub
  in
  let clock, net, rt =
    panel ~config:(panel_config ~adaptive:true ~shed_after:2 3)
      [ (flaky, false); (hub, true); (hub, true) ]
  in
  (match Runtime.voters rt with
  | [ v ] -> T_util.checkb "panel starts full" true (Voter.panel_active v)
  | _ -> Alcotest.fail "expected exactly one panel");
  inject_pairs net clock rt 8;
  let m = Runtime.metrics rt in
  T_util.checkb "panel shed while clean" true (Metrics.(get m nv_sheds) >= 1);
  T_util.checkb "panel re-grown on the shed-mode failure" true
    (Metrics.(get m nv_grows) >= 1);
  match Runtime.voters rt with
  | [ v ] -> T_util.checkb "panel active again" true (Voter.panel_active v)
  | _ -> Alcotest.fail "expected exactly one panel"

(* ------------------------------------------------------------------ *)
(* Differential: 3 identical healthy variants == the solo app *)

let verdict_of (r : Runner.result) =
  match r.Runner.failure with
  | Some f -> f.Runner.oracle
  | None -> "none"

let equivalent (a : Runner.result) (b : Runner.result) =
  verdict_of a = verdict_of b
  && a.Runner.trace = b.Runner.trace
  && a.Runner.final = b.Runner.final

let explain spec (a : Runner.result) (b : Runner.result) =
  let af = a.Runner.final and bf = b.Runner.final in
  let part name eq = if eq then None else Some name in
  let diffs =
    List.filter_map Fun.id
      [
        part "verdict" (verdict_of a = verdict_of b);
        part "event-trace" (a.Runner.trace = b.Runner.trace);
        part "flow-tables" (af.Runner.tables = bf.Runner.tables);
        part "shadow-intent" (af.Runner.shadows = bf.Runner.shadows);
        part "netlog-journal" (af.Runner.journal = bf.Runner.journal);
        part "metrics"
          ((af.Runner.f_events, af.Runner.f_crashes, af.Runner.f_committed,
            af.Runner.f_aborted)
          = (bf.Runner.f_events, bf.Runner.f_crashes, bf.Runner.f_committed,
             bf.Runner.f_aborted));
      ]
  in
  Printf.sprintf "spec %s: %s diverge(s)" (Check.Spec.summary spec)
    (String.concat ", " diffs)

(* Identical healthy variants vote unanimously on every event, so the
   panel must be invisible on the whole equivalence surface. Injected
   bugs are filtered out: a crashing app crashes all three variants
   identically, but the bundle's rollback accounting (one repair of
   three sandboxes vs. one of one) legitimately differs. *)
let healthy spec =
  {
    spec with
    Spec.elements =
      List.filter
        (function Spec.Inject_bug _ -> false | _ -> true)
        spec.Spec.elements;
  }

let solo_cache : (int, Runner.result) Hashtbl.t = Hashtbl.create 64

let solo seed =
  match Hashtbl.find_opt solo_cache seed with
  | Some r -> r
  | None ->
      let r = Runner.run (healthy (SGen.scenario seed)) in
      Hashtbl.add solo_cache seed r;
      r

let prop_panel_differential =
  QCheck2.Test.make
    ~name:"3-identical-healthy panel == solo app" ~count:60
    QCheck2.Gen.(int_bound 120)
    (fun seed ->
      let spec = healthy (SGen.scenario seed) in
      let a = solo seed in
      let b = Runner.run { spec with Spec.nversion = 3 } in
      if equivalent a b then true
      else QCheck2.Test.fail_report (explain spec a b))

let suite =
  [
    Alcotest.test_case "canonical strips Log" `Quick test_canonical_strips_log;
    Alcotest.test_case "first-arrival tie-break" `Quick
      test_first_arrival_tie_break;
    Alcotest.test_case "log-only divergence is unanimous" `Quick
      test_log_only_divergence_is_unanimous;
    Alcotest.test_case "majority wins" `Quick test_majority_wins;
    Alcotest.test_case "byzantine variant masked" `Quick
      test_byzantine_variant_masked;
    Alcotest.test_case "variant crash is masked" `Quick
      test_variant_crash_is_masked;
    Alcotest.test_case "every variant crashes" `Quick
      test_every_variant_crashes;
    Alcotest.test_case "2-variant split" `Quick test_two_variant_split;
    Alcotest.test_case "majority looping rule blocked" `Quick
      test_majority_loop_blocked;
    Alcotest.test_case "adaptive shed and grow" `Quick
      test_adaptive_shed_and_grow;
    QCheck_alcotest.to_alcotest prop_panel_differential;
  ]
