module App_sig = Controller.App_sig
(* The dispatch differential: batched dispatch must be observationally
   equivalent to sequential dispatch — which stays in-tree precisely to
   serve as the executable specification. Scenarios (topology, channel
   faults, traffic, injected app bugs) come from the fuzzer's
   seed-deterministic generator; equality is demanded on the full
   equivalence surface: oracle verdict, the dispatched event stream, final
   switch flow tables, controller shadow intent, the NetLog transaction
   journal, and the semantic metrics (events, crashes, commits, aborts).

   Plus a focused unit for the one step loop: every mode sheds a
   broadcast storm alike. *)

open Openflow
module Runtime = Legosdn.Runtime
module Event = Controller.Event
module Runner = Check.Runner
module SGen = Check.Gen

(* ------------------------------------------------------------------ *)
(* The differential property *)

let verdict_of (r : Runner.result) =
  match r.Runner.failure with
  | Some f -> f.Runner.oracle
  | None -> "none"

let explain_divergence spec max_batch (a : Runner.result)
    (b : Runner.result) =
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
  Printf.sprintf "spec %s, batch=%d: %s diverge(s)"
    (Check.Spec.summary spec) max_batch (String.concat ", " diffs)

let equivalent (a : Runner.result) (b : Runner.result) =
  verdict_of a = verdict_of b
  && a.Runner.trace = b.Runner.trace
  && a.Runner.final = b.Runner.final

(* Sequential baselines are pure in the seed; cache them so the 200+
   property cases pay one baseline per distinct seed. *)
let baseline_cache : (int, Runner.result) Hashtbl.t = Hashtbl.create 64

let baseline seed =
  match Hashtbl.find_opt baseline_cache seed with
  | Some r -> r
  | None ->
      let r = Runner.run (SGen.scenario seed) in
      Hashtbl.add baseline_cache seed r;
      r

let prop_differential =
  QCheck2.Test.make
    ~name:"batched dispatch == sequential dispatch" ~count:220
    QCheck2.Gen.(pair (int_bound 120) (oneofl [ 1; 2; 7; 64 ]))
    (fun (seed, max_batch) ->
      let spec = SGen.scenario seed in
      let a = baseline seed in
      let b = Runner.run ~dispatch:(Runtime.Batched { max_batch }) spec in
      if equivalent a b then true
      else QCheck2.Test.fail_report (explain_divergence spec max_batch a b))

(* ------------------------------------------------------------------ *)
(* Runtime-level regressions *)

(* The differential is only meaningful if the scenarios actually
   interleave Ticks with traffic (every Tick is a batch of its own); pin
   that the generator gives the property that structure. *)
let test_scenarios_exercise_tick_barriers () =
  let seed = 3 in
  let r = Runner.run ~dispatch:Runtime.default_sharded (SGen.scenario seed) in
  let ticks, others =
    List.partition (function Event.Tick _ -> true | _ -> false) r.Runner.trace
  in
  T_util.checkb "trace has ticks" true (ticks <> []);
  T_util.checkb "trace has events between ticks" true (others <> [])

(* Direct twin-runtime check, bypassing the Runner: same topology, same
   injected packets, one Tick mid-stream, one after — batched deliveries
   either side of the barrier must leave identical switch state,
   controller intent and transaction journal. *)
let twin dispatch =
  let clock = Netsim.Clock.create () in
  let net =
    Netsim.Net.create clock (Netsim.Topo_gen.linear ~hosts_per_switch:2 3)
  in
  let config = { Runtime.default_config with Runtime.dispatch } in
  let rt =
    Runtime.create ~config net
      [ Controller.App_sig.app (module Apps.Learning_switch) ]
  in
  let journal = ref [] in
  Option.iter
    (fun nl -> Legosdn.Netlog.set_close_hook nl (fun e -> journal := e :: !journal))
    (Runtime.netlog rt);
  Runtime.step rt;
  let hosts = Netsim.Topology.hosts (Netsim.Net.topology net) in
  let inject i =
    let n = List.length hosts in
    let src = List.nth hosts (i mod n) in
    let dst = List.nth hosts ((i + 1 + (i mod (n - 1))) mod n) in
    if src <> dst then
      Netsim.Net.inject net src (Packet.tcp ~src_host:src ~dst_host:dst ())
  in
  for i = 0 to 5 do
    inject i
  done;
  Runtime.step rt;
  Netsim.Clock.advance_by clock 0.5;
  Runtime.tick rt;
  for i = 6 to 11 do
    inject i
  done;
  Runtime.step rt;
  Netsim.Clock.advance_by clock 0.5;
  Runtime.tick rt;
  Runtime.step rt;
  let tables =
    Netsim.Topology.switches (Netsim.Net.topology net)
    |> List.sort compare
    |> List.map (fun sid ->
           Netsim.Flow_table.entries (Netsim.Net.switch net sid).Netsim.Sw.table)
  in
  let shadows =
    match Runtime.reliable rt with
    | Some rel -> Legosdn.Reliable.export_shadows rel
    | None -> []
  in
  (tables, shadows, List.rev !journal, Runtime.events_processed rt)

let test_twin_runtimes_agree_across_tick_barrier () =
  let seq = twin Runtime.Sequential in
  List.iter
    (fun max_batch ->
      T_util.checkb
        (Printf.sprintf "twin state equal at batch=%d" max_batch)
        true
        (seq = twin (Runtime.Batched { max_batch })))
    [ 1; 2; 64 ]

(* The one step loop: a hub alone on a 4-switch ring floods a storm that
   outruns the step budget. Every mode must spend the budget and shed the
   excess alike, step by step, and a batch never outgrows its size. *)
let storm ?(tracer = Obs.Tracer.noop) dispatch =
  let clock = Netsim.Clock.create () in
  let net =
    Netsim.Net.create clock (Netsim.Topo_gen.ring ~hosts_per_switch:1 4)
  in
  let config = { Runtime.default_config with Runtime.dispatch } in
  let rt = Runtime.create ~config net [ App_sig.app (module Apps.Hub) ] in
  Runtime.set_tracer rt tracer;
  let step () =
    Runtime.step rt;
    (Runtime.events_processed rt, Runtime.events_shed rt)
  in
  let send src dst =
    Netsim.Net.inject net src (Packet.tcp ~src_host:src ~dst_host:dst ())
  in
  let handshake = step () in
  send 1 3;
  let first = step () in
  Netsim.Clock.advance_by clock 0.5;
  Runtime.tick rt;
  send 2 4;
  let second = step () in
  ([ handshake; first; second ], (Netsim.Net.stats net).Netsim.Net.delivered)

let test_storm_sheds_alike_in_every_mode () =
  let seq = storm Runtime.Sequential in
  (match seq with
  | [ _; first; second ], delivered ->
      T_util.checkb "storm shed after the first flood" true
        (first = (2056, 3));
      T_util.checkb "storm shed after the second flood" true
        (second = (4105, 6));
      T_util.checki "packets delivered" 4094 delivered
  | _ -> Alcotest.fail "three steps");
  List.iter
    (fun max_batch ->
      T_util.checkb
        (Printf.sprintf "processed/shed after every step at batch=%d"
           max_batch)
        true
        (storm (Runtime.Batched { max_batch }) = seq))
    [ 1; 7; 64 ];
  let tracer = Obs.Tracer.create ~capacity:65536 ~now:(fun () -> 0.) () in
  ignore (storm ~tracer (Runtime.Batched { max_batch = 7 }));
  let spans = Obs.Tracer.spans tracer in
  T_util.checki "no span dropped" 0 (Obs.Tracer.dropped tracer);
  let events (s : Obs.Span.t) =
    int_of_string (List.assoc "events" s.Obs.Span.attrs)
  in
  let batches =
    List.filter (fun (s : Obs.Span.t) -> s.Obs.Span.kind = Obs.Span.Batch_root)
      spans
  in
  T_util.checkb "every batch holds 1..7 events" true
    (batches <> []
    && List.for_all (fun s -> events s >= 1 && events s <= 7) batches);
  let tick_batches =
    List.filter_map
      (fun (s : Obs.Span.t) ->
        if List.assoc_opt "kind" s.Obs.Span.attrs = Some "tick" then
          Some s.Obs.Span.parent
        else None)
      spans
  in
  T_util.checkb "the tick is a batch of one" true
    (List.map events
       (List.filter
          (fun (b : Obs.Span.t) -> List.mem b.Obs.Span.id tick_batches)
          batches)
    = [ 1 ])

let suite =
  [
    QCheck_alcotest.to_alcotest prop_differential;
    Alcotest.test_case "scenarios exercise tick barriers" `Quick
      test_scenarios_exercise_tick_barriers;
    Alcotest.test_case "twin runtimes agree across tick barrier" `Quick
      test_twin_runtimes_agree_across_tick_barrier;
    Alcotest.test_case "storm sheds alike in every mode" `Quick
      test_storm_sheds_alike_in_every_mode;
  ]
