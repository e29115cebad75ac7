(* Wall-clock micro-benchmarks, one cluster per experiment of
   EXPERIMENTS.md. Absolute numbers depend on the host; the experiments
   care about the *relative* shape (e.g. isolation costs a serialization
   roundtrip per hop; checkpoint cost grows with state size; recovery cost
   grows with transaction size). *)

open Bechamel
open Toolkit
open Netsim
module Event = Controller.Event
module Command = Controller.Command
module App_sig = Controller.App_sig
module Monolithic = Controller.Monolithic
module Runtime = Legosdn.Runtime
module Recovery_policy = Legosdn.Recovery_policy
module Crashpad = Legosdn.Crashpad

let null_context : App_sig.context =
  {
    now = (fun () -> 0.);
    switches = (fun () -> []);
    switch_ports = (fun _ -> []);
    links = (fun () -> []);
    host_location = (fun _ -> None);
  }

let packet_in_event ?(sid = 1) ?(in_port = 100) src dst =
  Event.Packet_in
    ( sid,
      {
        Openflow.Message.pi_buffer_id = None;
        pi_in_port = in_port;
        pi_reason = Openflow.Message.No_match;
        pi_packet = Openflow.Packet.tcp ~src_host:src ~dst_host:dst ();
      } )

let absolute_policy_config =
  {
    Runtime.default_config with
    Runtime.crashpad =
      {
        Crashpad.default_config with
        Crashpad.policy = Recovery_policy.uniform Recovery_policy.Absolute;
      };
  }

(* ------------------------------------------------------------------ *)
(* E4 — isolation latency: one event through the control loop,
   monolithic direct call vs AppVisor RPC + checkpoint. *)

let bench_isolation () =
  let mono_net =
    Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 3)
  in
  let mono = Monolithic.create mono_net [ (App_sig.app (module Apps.Hub)) ] in
  Monolithic.step mono;
  let lego_net =
    Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 3)
  in
  let lego = Runtime.create lego_net [ (App_sig.app (module Apps.Hub)) ] in
  Runtime.step lego;
  let ev = packet_in_event 1 2 in
  let cmds =
    [
      Command.install 1 Openflow.Ofp_match.any [ Openflow.Action.Output 1 ];
      Command.packet_out 1
        [ Openflow.Action.Output 2 ]
        (Some (Openflow.Packet.tcp ~src_host:1 ~dst_host:2 ()));
    ]
  in
  [
    Test.make ~name:"monolithic-dispatch"
      (Staged.stage (fun () ->
           Monolithic.dispatch_event mono ev;
           ignore (Net.poll mono_net)));
    Test.make ~name:"legosdn-dispatch"
      (Staged.stage (fun () ->
           Runtime.dispatch_event lego ev;
           ignore (Net.poll lego_net)));
    Test.make ~name:"wire-event-roundtrip"
      (Staged.stage (fun () -> ignore (Legosdn.Wire.roundtrip_event ev)));
    Test.make ~name:"wire-commands-roundtrip"
      (Staged.stage (fun () -> ignore (Legosdn.Wire.roundtrip_commands cmds)));
  ]

(* ------------------------------------------------------------------ *)
(* E5 — checkpoint cost vs application state size. *)

let learning_switch_with_macs n =
  let inst = ref (App_sig.instantiate (App_sig.app (module Apps.Learning_switch))) in
  for i = 1 to n do
    let ev =
      packet_in_event ~sid:1 ~in_port:(1 + (i mod 40)) i ((i mod 97) + 1)
    in
    let inst', _ = App_sig.handle !inst null_context ev in
    inst := inst'
  done;
  !inst

let bench_checkpoint () =
  List.map
    (fun n ->
      let inst = learning_switch_with_macs n in
      Test.make
        ~name:(Printf.sprintf "snapshot-%d-macs" n)
        (Staged.stage (fun () -> ignore (App_sig.snapshot inst))))
    [ 100; 1_000; 10_000 ]
  @ [
      (let inst = learning_switch_with_macs 1_000 in
       let snap = App_sig.snapshot inst in
       Test.make ~name:"restore-1000-macs"
         (Staged.stage (fun () -> ignore (App_sig.restore inst snap))));
    ]

(* ------------------------------------------------------------------ *)
(* E6 — crash recovery cost vs transaction size: the app emits [n]
   installs and dies mid-emission; Crash-Pad rolls all of them back,
   restores the snapshot and applies the (Absolute) policy. *)

let partial_crasher n : App_sig.app =
  App_sig.app
  (module struct
    type state = int

    let name = Printf.sprintf "partial_crasher_%d" n
    let subscriptions = [ Event.K_packet_in ]
    let init () = 0

    let handle _ st = function
      | Event.Packet_in _ ->
          let cmds =
            List.init n (fun i ->
                Command.install 1
                  (Openflow.Ofp_match.make ~tp_src:(i + 1) ())
                  [ Openflow.Action.Output 1 ])
          in
          raise (App_sig.Crash_with_partial cmds)
      | _ -> (st, [])
  end)

let bench_recovery () =
  List.map
    (fun n ->
      let net =
        Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 2)
      in
      let rt =
        Runtime.create ~config:absolute_policy_config net [ partial_crasher n ]
      in
      Runtime.step rt;
      let ev = packet_in_event 1 2 in
      Test.make
        ~name:(Printf.sprintf "recover-txn-%d-ops" n)
        (Staged.stage (fun () -> Runtime.dispatch_event rt ev)))
    [ 1; 16; 64; 256 ]

(* ------------------------------------------------------------------ *)
(* E8/E9 — NetLog eager apply + rollback vs the delay-buffer ablation. *)

let txn_commands n =
  List.init n (fun i ->
      Command.Flow
        ( 1,
          Openflow.Message.flow_add
            (Openflow.Ofp_match.make ~tp_src:(i + 1) ())
            [ Openflow.Action.Output 1 ] ))

let engine_bench name engine n finish =
  let cmds = txn_commands n in
  Test.make ~name
    (Staged.stage (fun () ->
         let txn = engine.Legosdn.Txn_engine.begin_txn ~app:"bench" in
         List.iter (fun c -> ignore (txn.Legosdn.Txn_engine.apply c)) cmds;
         match finish with
         | `Commit ->
             txn.Legosdn.Txn_engine.commit ();
             (* Leave the table as found so iterations stay uniform. *)
             let cleanup = engine.Legosdn.Txn_engine.begin_txn ~app:"clean" in
             ignore
               (cleanup.Legosdn.Txn_engine.apply
                  (Command.Flow
                     (1, Openflow.Message.flow_delete Openflow.Ofp_match.any)));
             cleanup.Legosdn.Txn_engine.commit ()
         | `Abort -> txn.Legosdn.Txn_engine.abort ()))

let bench_netlog () =
  List.concat_map
    (fun n ->
      let net =
        Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 2)
      in
      ignore (Net.poll net);
      let netlog = Legosdn.Netlog.engine (Legosdn.Netlog.create net) in
      let buffer = Legosdn.Delay_buffer.engine (Legosdn.Delay_buffer.create net) in
      [
        engine_bench (Printf.sprintf "netlog-commit-%d" n) netlog n `Commit;
        engine_bench (Printf.sprintf "netlog-abort-%d" n) netlog n `Abort;
        engine_bench (Printf.sprintf "buffer-commit-%d" n) buffer n `Commit;
        engine_bench (Printf.sprintf "buffer-abort-%d" n) buffer n `Abort;
      ])
    [ 1; 16; 64 ]

(* ------------------------------------------------------------------ *)
(* Substrate costs: codec, data plane, invariant checker. *)

let bench_substrate () =
  let fm =
    Openflow.Message.message
      (Openflow.Message.Flow_mod
         (Openflow.Message.flow_add
            (Openflow.Ofp_match.make ~tp_dst:80 ())
            [ Openflow.Action.Output 2 ]))
  in
  let fm_bytes = Openflow.Codec.encode fm in
  let net =
    Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 8)
  in
  ignore (Net.poll net);
  (* Program the chain for h1 -> h8. *)
  let dst_mac = Openflow.Types.mac_of_host 8 in
  for sid = 1 to 7 do
    ignore
      (Net.send net sid
         (Openflow.Message.message
            (Openflow.Message.Flow_mod
               (Openflow.Message.flow_add
                  (Openflow.Ofp_match.make ~dl_dst:dst_mac ())
                  [ Openflow.Action.Output (if sid = 1 then 1 else 2) ]))))
  done;
  ignore
    (Net.send net 8
       (Openflow.Message.message
          (Openflow.Message.Flow_mod
             (Openflow.Message.flow_add
                (Openflow.Ofp_match.make ~dl_dst:dst_mac ())
                [ Openflow.Action.Output 100 ]))));
  let pkt = Openflow.Packet.tcp ~src_host:1 ~dst_host:8 () in
  [
    Test.make ~name:"codec-encode-flow-mod"
      (Staged.stage (fun () -> ignore (Openflow.Codec.encode fm)));
    Test.make ~name:"codec-decode-flow-mod"
      (Staged.stage (fun () -> ignore (Openflow.Codec.decode fm_bytes)));
    Test.make ~name:"dataplane-8-hop-delivery"
      (Staged.stage (fun () ->
           Net.inject net 1 pkt;
           ignore (Net.poll net)));
    Test.make ~name:"invariant-check-linear-8"
      (Staged.stage (fun () ->
           ignore (Invariants.Checker.check (Invariants.Snapshot.of_net net))));
  ]

(* ------------------------------------------------------------------ *)
(* Crash-Pad machinery: policy decisions, transformations, quarantine
   lookups — all on every dispatch, so their unit cost matters. *)

let bench_crashpad_machinery () =
  let policy =
    Legosdn.Recovery_policy.make ~default:Legosdn.Recovery_policy.Equivalence
      [
        { Legosdn.Recovery_policy.app = Some "firewall"; kind = None;
          action = Legosdn.Recovery_policy.No_compromise };
        { Legosdn.Recovery_policy.app = None; kind = Some Event.K_switch_down;
          action = Legosdn.Recovery_policy.Equivalence };
        { Legosdn.Recovery_policy.app = Some "lb"; kind = Some Event.K_packet_in;
          action = Legosdn.Recovery_policy.Absolute };
      ]
  in
  let links_of _ =
    List.init 8 (fun i ->
        { Event.src_switch = 1; src_port = i + 1; dst_switch = i + 2; dst_port = 1 })
  in
  let quarantine = Legosdn.Quarantine.create () in
  let ev = packet_in_event 1 2 in
  for i = 1 to 50 do
    Legosdn.Quarantine.add quarantine ~app:"app" (packet_in_event i (i + 1))
  done;
  [
    Test.make ~name:"policy-decide"
      (Staged.stage (fun () ->
           ignore (Legosdn.Recovery_policy.decide policy ~app:"router" Event.K_packet_in)));
    Test.make ~name:"transform-switch-down"
      (Staged.stage (fun () ->
           ignore (Legosdn.Transform.equivalents ~links_of (Event.Switch_down 1))));
    Test.make ~name:"quarantine-miss-lookup-50-entries"
      (Staged.stage (fun () ->
           ignore (Legosdn.Quarantine.blocked quarantine ~app:"app" ev)));
  ]

(* Topology-sized costs: STP recompute and invariant checks on a fat-tree. *)

let bench_topology_scale () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.fat_tree 4) in
  let rt = Runtime.create net [ (App_sig.app (module Apps.Spanning_tree)) ] in
  Runtime.step rt;
  let services_links =
    Controller.Services.context
      (Runtime.services rt)
  in
  let snap = Invariants.Snapshot.of_net net in
  [
    Test.make ~name:"stp-recompute-fat-tree-k4"
      (Staged.stage (fun () ->
           ignore
             (Apps.Spanning_tree.handle services_links
                (Apps.Spanning_tree.init ())
                (Event.Link_up
                   { Event.src_switch = 1; src_port = 1; dst_switch = 5; dst_port = 1 }))));
    Test.make ~name:"invariant-check-fat-tree-k4"
      (Staged.stage (fun () -> ignore (Invariants.Checker.check snap)));
    Test.make ~name:"snapshot-of-fat-tree-k4"
      (Staged.stage (fun () -> ignore (Invariants.Snapshot.of_net net)));
  ]

(* End-to-end scenario throughput: one full 10-virtual-second availability
   run per iteration (the unit of work behind E7). *)

let bench_scenario () =
  let scenario =
    Workload.Scenario.make
      ~make_topology:(fun () -> Topo_gen.linear ~hosts_per_switch:1 3)
      ~duration:10.
      ~traffic:
        (Workload.Traffic.schedule
           (Workload.Traffic.uniform_pairs ~seed:3 ~hosts:[ 1; 2; 3 ] ~flows:30
              ~duration:10. ()))
      ~tick_interval:1. ()
  in
  [
    Test.make ~name:"scenario-10s-legosdn"
      (Staged.stage (fun () ->
           ignore
             (Workload.Scenario.run scenario ~make_driver:(fun net ->
                  Workload.Scenario.legosdn_driver
                    (Runtime.create net [ (App_sig.app (module Apps.Learning_switch)) ])))));
    Test.make ~name:"scenario-10s-monolithic"
      (Staged.stage (fun () ->
           ignore
             (Workload.Scenario.run scenario ~make_driver:(fun net ->
                  Workload.Scenario.monolithic_driver
                    (Monolithic.create net [ (App_sig.app (module Apps.Learning_switch)) ])))));
  ]

(* ------------------------------------------------------------------ *)
(* E20 — the control-channel fault model and the reliable-delivery layer:
   verdict draw cost, the barrier-chasing overhead on a perfect channel,
   and a full send+drain cycle over 10% loss. Each iteration installs and
   then deletes one rule so tables stay small and uniform. *)

let bench_channel () =
  let next_xid = ref 1 in
  let fresh () =
    let x = !next_xid in
    next_xid := x + 1;
    x
  in
  let pattern = Openflow.Ofp_match.make ~tp_src:1 () in
  let add () =
    Openflow.Message.message ~xid:(fresh ())
      (Openflow.Message.Flow_mod
         (Openflow.Message.flow_add ~priority:10 pattern
            [ Openflow.Action.Output 1 ]))
  in
  let delete () =
    Openflow.Message.message ~xid:(fresh ())
      (Openflow.Message.Flow_mod
         (Openflow.Message.flow_delete ~strict:true ~priority:10 pattern))
  in
  let ch = Channel.create ~config:(Channel.lossy 0.1) ~seed:3 () in
  let direct_net =
    Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 2)
  in
  ignore (Net.poll direct_net);
  let perfect_net =
    Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 2)
  in
  ignore (Net.poll perfect_net);
  let perfect_rel = Legosdn.Reliable.create perfect_net in
  let lossy_clock = Clock.create () in
  let lossy_net =
    Net.create ~channel:(Channel.lossy 0.1) ~channel_seed:7 lossy_clock
      (Topo_gen.linear ~hosts_per_switch:1 2)
  in
  ignore (Net.poll lossy_net);
  let lossy_rel = Legosdn.Reliable.create lossy_net in
  [
    Test.make ~name:"channel-verdict-10pct-loss"
      (Staged.stage (fun () -> ignore (Channel.forward ch)));
    Test.make ~name:"install+delete-direct"
      (Staged.stage (fun () ->
           ignore (Net.send direct_net 1 (add ()));
           ignore (Net.send direct_net 1 (delete ()))));
    Test.make ~name:"install+delete-reliable-perfect"
      (Staged.stage (fun () ->
           ignore (Legosdn.Reliable.send perfect_rel 1 (add ()));
           ignore (Legosdn.Reliable.send perfect_rel 1 (delete ()))));
    Test.make ~name:"install+delete-reliable-10pct-loss"
      (Staged.stage (fun () ->
           ignore (Legosdn.Reliable.send lossy_rel 1 (add ()));
           ignore (Legosdn.Reliable.send lossy_rel 1 (delete ()));
           while Legosdn.Reliable.pending_count lossy_rel > 0 do
             Clock.advance_by lossy_clock 0.1;
             Legosdn.Reliable.tick lossy_rel
           done));
  ]

(* ------------------------------------------------------------------ *)
(* The incremental invariant checker on the Crash-Pad hot path: a k=4
   fat-tree whose tables were populated by a learning switch (exact-match
   rules — the flow-table hash fast path), checked repeatedly.

   - "full" freezes the world and traces every pair, every iteration —
     the pre-incremental behaviour.
   - "warm" is the steady state between transactions: nothing changed, so
     the check is version scans plus cache reads.
   - "cold" builds a fresh engine per iteration — the price of the first
     check, which must stay close to "full".
   - "check-flow-mods-*" screen a 3-rule hypothetical batch, the exact
     call Crash-Pad makes per transaction. *)

let bench_incremental () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.fat_tree 4) in
  let mono = Monolithic.create net [ (App_sig.app (module Apps.Learning_switch)) ] in
  Monolithic.step mono;
  let hosts = Topology.hosts (Net.topology net) in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if src <> dst then begin
            Clock.advance_by clock 0.001;
            Net.inject net src (Openflow.Packet.tcp ~src_host:src ~dst_host:dst ());
            Monolithic.step mono
          end)
        hosts)
    hosts;
  let warm_engine = Invariants.Incremental.create net in
  ignore (Invariants.Incremental.check warm_engine);
  let mods =
    List.init 3 (fun i ->
        ( i + 1,
          Openflow.Message.flow_add
            (Openflow.Ofp_match.make ~tp_src:(i + 1) ())
            [ Openflow.Action.Output 1 ] ))
  in
  let mods_engine = Invariants.Incremental.create net in
  ignore (Invariants.Incremental.check mods_engine);
  [
    Test.make ~name:"invariant-check-fat-tree-k4-full"
      (Staged.stage (fun () ->
           ignore (Invariants.Checker.check (Invariants.Snapshot.of_net net))));
    Test.make ~name:"invariant-check-fat-tree-k4-warm"
      (Staged.stage (fun () ->
           ignore (Invariants.Incremental.check warm_engine)));
    Test.make ~name:"invariant-check-fat-tree-k4-cold"
      (Staged.stage (fun () ->
           ignore
             (Invariants.Incremental.check (Invariants.Incremental.create net))));
    Test.make ~name:"check-flow-mods-full"
      (Staged.stage (fun () ->
           ignore
             (Invariants.Checker.check_flow_mods
                (Invariants.Snapshot.of_net net)
                mods)));
    Test.make ~name:"check-flow-mods-incremental"
      (Staged.stage (fun () ->
           ignore (Invariants.Incremental.check_flow_mods mods_engine mods)));
  ]

(* ------------------------------------------------------------------ *)
(* E23 — delta checkpointing: take cost (full blob vs chunked delta) on a
   warmed learning switch, restore latency across journal depths
   (materialize + replay), and a deterministic steady-state byte-accounting
   experiment. The byte numbers are not timed — they are exact counters
   from the checkpoint store, surfaced through the JSON "derived" section
   so CI can assert the delta-vs-full reduction without rerunning. *)

module Checkpoint = Legosdn.Checkpoint

let ckpt_stats : (string * float) list ref = ref []

(* One availability-style run: warm the app on an 8-host pair mix, then
   keep replaying the same pairs (steady state — learned state no longer
   changes), checkpointing with k=1 so every event pays a snapshot. Only
   steady-state bytes are reported; the warm-up is charged to neither. *)
let steady_state_bytes make_ckpt =
  let c = make_ckpt () in
  let live = ref (App_sig.instantiate (App_sig.app (module Apps.Learning_switch))) in
  let feed src dst =
    if Checkpoint.due c then Checkpoint.take c !live;
    let ev = packet_in_event ~sid:1 ~in_port:src src dst in
    let updated, _ = App_sig.handle !live null_context ev in
    live := updated;
    Checkpoint.record_applied c ev
  in
  let sweep () =
    for src = 1 to 16 do
      for dst = 1 to 16 do
        if src <> dst then feed src dst
      done
    done
  in
  sweep ();
  let base = Checkpoint.bytes_written c in
  for _round = 1 to 10 do
    sweep ()
  done;
  (float_of_int (Checkpoint.bytes_written c - base), c)

let bench_ckpt () =
  let full_bytes, _ = steady_state_bytes (fun () -> Checkpoint.create ~every:1) in
  let delta_bytes, delta_c =
    steady_state_bytes (fun () ->
        Checkpoint.create_delta ~cadence:(Checkpoint.Every 1) ())
  in
  ckpt_stats :=
    [
      ("ckpt-steady-full-bytes-written", full_bytes);
      ("ckpt-steady-delta-bytes-written", delta_bytes);
      ( "ckpt-bytes-ratio-full-over-delta",
        if delta_bytes > 0. then full_bytes /. delta_bytes else nan );
      ("ckpt-chunk-hits", float_of_int (Checkpoint.chunk_hits delta_c));
      ("ckpt-chunk-misses", float_of_int (Checkpoint.chunk_misses delta_c));
      ( "ckpt-bytes-deduped",
        float_of_int (Checkpoint.chunk_bytes_deduped delta_c) );
    ];
  let inst = learning_switch_with_macs 1_000 in
  let full = Checkpoint.create ~every:1 in
  Checkpoint.take full inst;
  let delta = Checkpoint.create_delta ~cadence:(Checkpoint.Every 1) () in
  Checkpoint.take delta inst;
  let restore_test n =
    let c = Checkpoint.create_delta ~cadence:(Checkpoint.Every 100_000) () in
    Checkpoint.take c inst;
    for i = 1 to n do
      Checkpoint.record_applied c
        (packet_in_event ~sid:1 ~in_port:(1 + (i mod 40)) ((i mod 97) + 1)
           (((i + 13) mod 97) + 1))
    done;
    Test.make
      ~name:(Printf.sprintf "restore-journal-%d" n)
      (Staged.stage (fun () ->
           match Checkpoint.restore_point c with
           | None -> ()
           | Some (snap, journal) ->
               let restored = ref (App_sig.restore inst snap) in
               List.iter
                 (fun ev ->
                   let updated, _ = App_sig.handle !restored null_context ev in
                   restored := updated)
                 journal))
  in
  [
    Test.make ~name:"take-full-1000-macs"
      (Staged.stage (fun () -> Checkpoint.take full inst));
    (* Steady state for the delta store: every chunk hits, so this measures
       the chunking + digest walk rather than storage. *)
    Test.make ~name:"take-delta-1000-macs"
      (Staged.stage (fun () -> Checkpoint.take delta inst));
  ]
  @ List.map restore_test [ 0; 16; 64; 256 ]

(* ------------------------------------------------------------------ *)
(* E22 — observability overhead: the same control-loop hot paths with the
   no-op tracer vs a live ring-buffer tracer, plus the tracer's unit
   costs. The derived "obs-*-overhead" ratios are the acceptance numbers:
   tracing on must stay within a few percent of tracing off on the
   dispatch path, and the no-op tracer is a single branch. *)

let bench_obs () =
  let make_rt () =
    let net =
      Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 3)
    in
    let rt = Runtime.create net [ (App_sig.app (module Apps.Hub)) ] in
    Runtime.step rt;
    (net, rt)
  in
  let off_net, off_rt = make_rt () in
  let on_net, on_rt = make_rt () in
  (* A modest ring reaches wraparound (steady state) during warm-up, so
     the measured slope is the tracer's per-span work rather than the
     live-heap growth of a still-filling 65536-slot ring. *)
  let ring = 8192 in
  Runtime.set_tracer on_rt
    (Obs.Tracer.create ~capacity:ring
       ~now:(fun () -> Clock.now (Net.clock on_net))
       ());
  let ev = packet_in_event 1 2 in
  (* The per-transaction screening call (E21's hot path), traced vs not. *)
  let screen_net = Net.create (Clock.create ()) (Topo_gen.fat_tree 4) in
  ignore (Net.poll screen_net);
  let screen_engine = Invariants.Incremental.create screen_net in
  ignore (Invariants.Incremental.check screen_engine);
  let screen_tracer =
    Obs.Tracer.create ~capacity:ring
      ~now:(fun () -> Clock.now (Net.clock screen_net))
      ()
  in
  let mods =
    List.init 3 (fun i ->
        Command.Flow
          ( (i mod 4) + 1,
            Openflow.Message.flow_add
              (Openflow.Ofp_match.make ~tp_src:(i + 1) ())
              [ Openflow.Action.Output 1 ] ))
  in
  let screen tracer =
    ignore (Legosdn.Atomic_update.screen ~tracer ~checker:screen_engine mods)
  in
  let prim = Obs.Tracer.create ~capacity:4096 ~now:(fun () -> 0.) () in
  let hist = Obs.Histogram.create () in
  [
    Test.make ~name:"dispatch-tracing-off"
      (Staged.stage (fun () ->
           Runtime.dispatch_event off_rt ev;
           ignore (Net.poll off_net)));
    Test.make ~name:"dispatch-tracing-on"
      (Staged.stage (fun () ->
           Runtime.dispatch_event on_rt ev;
           ignore (Net.poll on_net)));
    Test.make ~name:"screen-tracing-off"
      (Staged.stage (fun () -> screen Obs.Tracer.noop));
    Test.make ~name:"screen-tracing-on"
      (Staged.stage (fun () -> screen screen_tracer));
    Test.make ~name:"span-start-finish"
      (Staged.stage (fun () ->
           Obs.Tracer.finish prim (Obs.Tracer.start prim Obs.Span.App_handle)));
    Test.make ~name:"tracer-instant"
      (Staged.stage (fun () -> Obs.Tracer.instant prim Obs.Span.Inv_cache_hit));
    Test.make ~name:"histogram-observe"
      (Staged.stage (fun () -> Obs.Histogram.observe hist 3.2e-6));
  ]

(* ------------------------------------------------------------------ *)

(* E24: replicated-cluster fail-over. Two acceptance numbers: the
   virtual-time gap between a leader kill and its successor serving
   traffic (an exact counter from one scripted kill run, surfaced via the
   derived section), and the wall-clock overhead of driving a 3-replica
   cluster versus a single controller on the same fat-tree workload (the
   derived "failover-replication-overhead" ratio, budget <= 2x). *)

let failover_stats : (string * float) list ref = ref []

let bench_failover () =
  let cluster_config =
    {
      Runtime.default_config with
      Runtime.cluster =
        { Runtime.replicas = 3; election_lo = 0.15; election_hi = 0.3 };
    }
  in
  let fat_tree_world () =
    let clock = Clock.create () in
    let topo = Topo_gen.fat_tree 4 in
    let net = Net.create clock topo in
    let hosts = Array.of_list (Topology.hosts topo) in
    let n = Array.length hosts in
    let counter = ref 0 in
    let inject () =
      incr counter;
      let src = hosts.(!counter mod n)
      and dst = hosts.((!counter + 3) mod n) in
      Net.inject net src (Openflow.Packet.tcp ~src_host:src ~dst_host:dst ())
    in
    (clock, net, inject)
  in
  (* Exact counters from one scripted kill run: traffic, a kill at the
     midpoint, traffic to the end. *)
  let clock, net, inject = fat_tree_world () in
  let apps : App_sig.app list =
    (* STP prunes the fat-tree's loops before learning-switch floods, so
       the drive reaches a steady state instead of a broadcast storm. *)
    [ (App_sig.app (module Apps.Spanning_tree)); (App_sig.app (module Apps.Learning_switch)) ]
  in
  let killed = Cluster.create ~config:cluster_config ~seed:11 net apps in
  for i = 1 to 40 do
    Clock.advance_by clock 0.5;
    Net.tick net;
    inject ();
    if i = 20 then Cluster.arm_kill killed;
    Cluster.tick killed
  done;
  failover_stats :=
    [
      ( "failover-latency-virtual-s",
        match Cluster.failover_latencies killed with
        | d :: _ -> d
        | [] -> Float.nan );
      ( "failover-replication-bytes",
        float_of_int (Cluster.replication_bytes killed) );
      ( "failover-state-transfers",
        float_of_int (Cluster.transfers_shipped killed) );
    ];
  (* Wall-clock cost of one driver tick, replicated vs solo, in steady
     state: both sides are warmed through the learning storm first, so
     the slope compares replication machinery, not first-contact
     flooding. The solo thunk pairs [tick] with [step] — the cluster's
     tick polls and dispatches internally, the bare runtime needs both. *)
  let cl_clock, cl_net, cl_inject = fat_tree_world () in
  let cluster =
    Cluster.create ~config:cluster_config ~seed:12 cl_net apps
  in
  let drive_cluster () =
    Clock.advance_by cl_clock 0.5;
    Net.tick cl_net;
    cl_inject ();
    Cluster.tick cluster
  in
  let solo_clock, solo_net, solo_inject = fat_tree_world () in
  let solo = Runtime.create solo_net apps in
  let drive_solo () =
    Clock.advance_by solo_clock 0.5;
    Net.tick solo_net;
    solo_inject ();
    Runtime.tick solo;
    Runtime.step solo
  in
  for _ = 1 to 60 do
    drive_cluster ();
    drive_solo ()
  done;
  [
    Test.make ~name:"drive-tick-cluster-3-fat-tree-k4"
      (Staged.stage drive_cluster);
    Test.make ~name:"drive-tick-solo-fat-tree-k4"
      (Staged.stage drive_solo);
  ]

(* ------------------------------------------------------------------ *)

(* E25 — sharded, batched event dispatch. A packet-in flood on a fat-tree
   k=8 against an ARP responder warmed with a directory-scale binding set
   (16k entries), so the sequential engine's per-event obligations — a
   full-state checkpoint at the default k=1 cadence plus a barrier per
   state-altering message — dominate the per-event cost. The sharded
   engine amortizes both across a batch (one checkpoint per app per
   batch, one barrier per touched switch) and reuses codec buffers, which
   is exactly the claimed >=10x. Both drives process the same burst of
   events per step, so the ns/run ratio is the events/sec ratio. *)

let dispatch_stats : (string * float) list ref = ref []

let bench_dispatch () =
  let burst = 32 in
  let bindings = 16_384 in
  let world dispatch =
    let clock = Clock.create () in
    let net = Net.create clock (Topo_gen.fat_tree 8) in
    let hosts = Array.of_list (Topology.hosts (Net.topology net)) in
    let nh = Array.length hosts in
    let config = { Runtime.default_config with Runtime.dispatch } in
    let rt = Runtime.create ~config net [ (App_sig.app (module Apps.Arp_responder)) ] in
    Runtime.step rt;
    (* Teach the responder its directory with gratuitous replies: ARP
       *requests* for unknown addresses would flood, and a fat-tree's
       loops turn one flood into a broadcast storm. *)
    let gratuitous j =
      Openflow.Packet.make ~dl_type:Openflow.Packet.ethertype_arp ~nw_proto:2
        ~dl_src:(Openflow.Types.mac_of_host j)
        ~dl_dst:Openflow.Types.mac_broadcast
        ~nw_src:(Openflow.Types.ip_of_host j)
        ~nw_dst:(Openflow.Types.ip_of_host j) ~tp_src:0 ~tp_dst:0
        ~payload_len:28 ()
    in
    Array.iter
      (fun src ->
        Net.inject net src (gratuitous src);
        Runtime.step rt)
      hosts;
    (* Chunked below the storm-guard budget so nothing is shed. *)
    let chunk = 1024 in
    for base = 0 to (bindings / chunk) - 1 do
      for j = (base * chunk) + 1 to (base + 1) * chunk do
        Net.inject net hosts.(j mod nh) (gratuitous (1000 + j))
      done;
      Runtime.step rt
    done;
    let counter = ref 0 in
    let drive () =
      (* A burst of ARP requests for known addresses: every packet-in
         draws a unicast packet-out reply, no data-plane amplification. *)
      incr counter;
      for i = 0 to burst - 1 do
        let src = hosts.((!counter + i) mod nh) in
        let dst = 1001 + (((!counter * burst) + i) mod bindings) in
        Net.inject net src
          (Openflow.Packet.arp_request ~src_host:src ~dst_host:dst)
      done;
      Runtime.step rt
    in
    (rt, drive)
  in
  let seq_rt, drive_seq = world Runtime.Sequential in
  let sh_rt, drive_sh = world Runtime.default_sharded in
  for _ = 1 to 3 do
    drive_seq ();
    drive_sh ()
  done;
  let seq_before = Runtime.events_processed seq_rt in
  let sh_before = Runtime.events_processed sh_rt in
  drive_seq ();
  drive_sh ();
  dispatch_stats :=
    [
      ( "dispatch-flood-events-per-step-seq",
        float_of_int (Runtime.events_processed seq_rt - seq_before) );
      ( "dispatch-flood-events-per-step-sharded",
        float_of_int (Runtime.events_processed sh_rt - sh_before) );
      ("dispatch-flood-shed-seq", float_of_int (Runtime.events_shed seq_rt));
      ("dispatch-flood-shed-sharded", float_of_int (Runtime.events_shed sh_rt));
    ];
  [
    Test.make ~name:"flood-step-seq-fat-tree-k8" (Staged.stage drive_seq);
    Test.make ~name:"flood-step-sharded-fat-tree-k8" (Staged.stage drive_sh);
  ]

(* ------------------------------------------------------------------ *)

(* E26 — scale to fat-tree k=16. Three sub-experiments:

   - match-storage interning: install one dl_dst rule per (switch, host)
     pair of a k=16 fabric (320 x 1024 entries sharing 1024 distinct
     patterns) through the production path (Flow_entry.make ->
     Flow_table.add), then measure the heap reachable from the stored
     patterns with interning on vs off. The ratio is the fabric-wide
     match-storage saving (budget: >= 4x).
   - bounded trace cache: a trace-driven learning-switch campaign on a
     k=4 fat-tree with a deliberately tiny [trace_cache_budget], sampling
     the checker's resident cache bytes after every step. Evictions > 0 and
     peak <= budget show the cache holds memory flat under load.
   - trace-driven flood throughput at k = 4 / 8 / 16: the ARP-responder
     harness of E25 (gratuitous warm-up, no data-plane amplification),
     but with the request order drawn from a Trace_gen plan — heavy-tailed
     bursts over a diurnal curve, the load shape big fabrics actually see.
     Live-words deltas per world and events-per-step counters land in the
     derived section; events/sec per k is computed from the fitted
     ns/run. *)

let scale_stats : (string * float) list ref = ref []

let match_storage_words ~interned k =
  let was = Openflow.Ofp_match.interning_enabled () in
  Openflow.Ofp_match.set_interning interned;
  Fun.protect
    ~finally:(fun () -> Openflow.Ofp_match.set_interning was)
    (fun () ->
      let topo = Topo_gen.fat_tree k in
      let switches = Topology.switches topo in
      let hosts = Topology.hosts topo in
      let tables =
        List.map
          (fun _ ->
            let table = Flow_table.create () in
            List.iter
              (fun h ->
                Flow_table.add table
                  (Flow_entry.make ~priority:10 ~now:0.
                     (Openflow.Ofp_match.make
                        ~dl_dst:(Openflow.Types.mac_of_host h)
                        ())
                     [ Openflow.Action.Output 1 ]))
              hosts;
            table)
          switches
      in
      let patterns =
        Array.of_list
          (List.concat_map
             (fun table ->
               List.map
                 (fun e -> e.Flow_entry.pattern)
                 (Flow_table.entries table))
             tables)
      in
      (* [reachable_words] counts shared blocks once, so interned tables
         charge each distinct pattern a single time. *)
      (Array.length patterns, Obj.reachable_words (Obj.repr patterns)))

let bounded_cache_campaign () =
  let budget = 65_536 in
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.fat_tree 4) in
  let hosts = Topology.hosts (Net.topology net) in
  let config =
    {
      Runtime.default_config with
      Runtime.trace_cache_budget = Some budget;
      Runtime.dispatch = Runtime.default_sharded;
    }
  in
  (* STP first so the learning switch works on a loop-free overlay. *)
  let rt =
    Runtime.create ~config net
      [ (App_sig.app (module Apps.Spanning_tree)); (App_sig.app (module Apps.Learning_switch)) ]
  in
  Runtime.step rt;
  let w =
    {
      Runtime.default_workload_config with
      Runtime.w_seed = 42;
      Runtime.w_rate = 60.;
      Runtime.w_churn = 0.1;
    }
  in
  let injections =
    Workload.Trace_gen.injections ~config:w ~hosts ~duration:8. ()
  in
  let m = Runtime.metrics rt in
  let peak = ref 0 in
  List.iter
    (fun i ->
      Clock.advance_by clock
        (Float.max 0. (i.Workload.Traffic.at -. Clock.now clock));
      Net.tick net;
      Net.inject net i.Workload.Traffic.src i.Workload.Traffic.packet;
      Runtime.step rt;
      peak :=
        max !peak (Invariants.Incremental.cache_bytes (Runtime.incremental rt)))
    injections;
  [
    ("scale-trace-cache-budget-bytes", float_of_int budget);
    ("scale-trace-cache-peak-bytes", float_of_int !peak);
    ( "scale-trace-cache-evictions",
      float_of_int Legosdn.Metrics.(get m inv_evictions) );
  ]

let scale_world k =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.fat_tree k) in
  let hosts = Array.of_list (Topology.hosts (Net.topology net)) in
  let config =
    { Runtime.default_config with Runtime.dispatch = Runtime.default_sharded }
  in
  let rt = Runtime.create ~config net [ (App_sig.app (module Apps.Arp_responder)) ] in
  Runtime.step rt;
  (* Gratuitous replies teach the responder every binding without the
     broadcast storm an unknown-address request would start (see E25). *)
  let gratuitous j =
    Openflow.Packet.make ~dl_type:Openflow.Packet.ethertype_arp ~nw_proto:2
      ~dl_src:(Openflow.Types.mac_of_host j)
      ~dl_dst:Openflow.Types.mac_broadcast
      ~nw_src:(Openflow.Types.ip_of_host j)
      ~nw_dst:(Openflow.Types.ip_of_host j) ~tp_src:0 ~tp_dst:0
      ~payload_len:28 ()
  in
  Array.iter
    (fun src ->
      Net.inject net src (gratuitous src);
      Runtime.step rt)
    hosts;
  (* The drive replays a Trace_gen plan as ARP requests for known
     addresses: heavy-tailed src/dst bursts, every packet-in answered by
     one unicast packet-out. *)
  let w =
    {
      Runtime.default_workload_config with
      Runtime.w_seed = k;
      Runtime.w_rate = 200.;
    }
  in
  let plan =
    Workload.Trace_gen.plan ~config:w ~hosts:(Array.to_list hosts)
      ~duration:30. ()
  in
  let flows = Array.of_list plan.Workload.Trace_gen.flows in
  let nf = Array.length flows in
  assert (nf > 0);
  let burst = 32 in
  let cursor = ref 0 in
  let drive () =
    for _ = 1 to burst do
      let f = flows.(!cursor mod nf) in
      incr cursor;
      Net.inject net f.Workload.Traffic.src_host
        (Openflow.Packet.arp_request ~src_host:f.Workload.Traffic.src_host
           ~dst_host:f.Workload.Traffic.dst_host)
    done;
    Runtime.step rt
  in
  (rt, drive)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let bench_scale () =
  scale_stats := [];
  let entries, interned_words = match_storage_words ~interned:true 16 in
  let _, fresh_words = match_storage_words ~interned:false 16 in
  scale_stats :=
    [
      ("scale-match-entries", float_of_int entries);
      ("scale-match-words-interned", float_of_int interned_words);
      ("scale-match-words-fresh", float_of_int fresh_words);
      ( "scale-match-intern-ratio",
        float_of_int fresh_words /. float_of_int interned_words );
    ]
    @ bounded_cache_campaign ();
  List.map
    (fun k ->
      let before = live_words () in
      let rt, drive = scale_world k in
      let after = live_words () in
      for _ = 1 to 3 do
        drive ()
      done;
      let ev_before = Runtime.events_processed rt in
      drive ();
      scale_stats :=
        !scale_stats
        @ [
            ( Printf.sprintf "scale-live-words-k%d" k,
              float_of_int (after - before) );
            ( Printf.sprintf "scale-flood-events-per-step-k%d" k,
              float_of_int (Runtime.events_processed rt - ev_before) );
          ];
      Test.make
        ~name:(Printf.sprintf "trace-step-fat-tree-k%d" k)
        (Staged.stage drive))
    [ 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* E27 — declarative policy compiler: compile throughput, plus the full
   pipeline a policy-derived compromise pays (recompile against the
   post-failure topology, diff against installed intent, differential
   agreement on a probe set, invariant check over the flow-mods),
   against the hand-coded transform it subsumes. *)

let policy_stats : (string * float) list ref = ref []

let bench_policy () =
  policy_stats := [];
  let switches n = List.init n (fun i -> i + 1) in
  (* Bidirectional chain matching [Topo_gen.linear]'s port plan: port 1
     faces down-chain, port 2 up-chain, port 100 attaches the host. *)
  let chain_links n =
    List.concat_map
      (fun i ->
        [
          { Event.src_switch = i; src_port = 2; dst_switch = i + 1; dst_port = 1 };
          { Event.src_switch = i + 1; src_port = 1; dst_switch = i; dst_port = 2 };
        ])
      (List.init (n - 1) (fun i -> i + 1))
  in
  (* The policy_router shape: one Dl_dst route bundle per destination,
     every switch forwarding along the chain towards it. *)
  let routes ~fabric:n ~dests:m =
    Policy.union_all
      (List.init m (fun h ->
           let mac = Openflow.Types.mac_of_host (h + 1) in
           let dst = (h mod n) + 1 in
           Policy.union_all
             (List.map
                (fun sw ->
                  let out =
                    if sw = dst then 100 else if sw < dst then 2 else 1
                  in
                  Policy.at sw
                    (Policy.seq
                       (Policy.filter (Policy.Test (Policy.Dl_dst mac)))
                       (Policy.forward out)))
                (switches n))))
  in
  let firewall = Apps.Policy_firewall.intent in
  let routes_16x64 = routes ~fabric:16 ~dests:64 in
  policy_stats :=
    [
      ( "policy-rows-firewall-16sw",
        float_of_int
          (Policy.table_rows (Policy.compile ~switches:(switches 16) firewall))
      );
      ( "policy-rows-routes-16sw-64dst",
        float_of_int
          (Policy.table_rows
             (Policy.compile ~switches:(switches 16) routes_16x64)) );
    ];
  (* The compromise pipeline on a live fabric, exactly the work
     [Crashpad.sync_intent] does per candidate rule-set: switch 4 has
     died, so the intent is recompiled over the survivors, diffed against
     the tables installed before the failure, checked against the
     reference denotation on a derived probe set, and finally screened by
     the safety invariants. *)
  let net =
    Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 8)
  in
  let live = switches 8 in
  let survivors = List.filter (fun s -> s <> 4) live in
  let ports _ = [ 100; 1; 2 ] in
  let pol = Policy.union firewall (routes ~fabric:8 ~dests:8) in
  let installed = Policy.compile ~switches:live pol in
  let verified_compromise () =
    let next = Policy.compile ~switches:survivors pol in
    let mods = Policy.flow_mods ~prev:installed ~next in
    let probes = Policy.probes ~ports next in
    let agreed = Policy.agrees ~ports ~switches:survivors pol next ~probes in
    let snap = Invariants.Snapshot.of_net net in
    let violations = Invariants.Checker.check_flow_mods snap mods in
    ignore agreed;
    ignore violations
  in
  let links_of _ = chain_links 8 in
  [
    Test.make ~name:"compile-firewall-16sw"
      (Staged.stage (fun () ->
           ignore (Policy.compile ~switches:(switches 16) firewall)));
    Test.make ~name:"compile-routes-16sw-64dst"
      (Staged.stage (fun () ->
           ignore (Policy.compile ~switches:(switches 16) routes_16x64)));
    Test.make ~name:"verified-compromise-linear-8"
      (Staged.stage verified_compromise);
    Test.make ~name:"transform-baseline-switch-down"
      (Staged.stage (fun () ->
           ignore (Legosdn.Transform.equivalents ~links_of (Event.Switch_down 4))));
  ]

(* ------------------------------------------------------------------ *)
(* E28 — N-version voting panels. One punted packet against a hub (every
   event votes: the hub never installs rules, so steady state is one
   election per injection) under three shapes: solo sandbox, a full
   3-variant panel, and an adaptive panel that has shed to its primary.
   The panel pays 3 deliveries + an election per event; the shed panel
   must be nearly indistinguishable from solo — that ratio is the MORPH
   claim, and CI budgets it. *)

let nversion_stats : (string * float) list ref = ref []

let bench_nversion () =
  let world nversion =
    let clock = Clock.create () in
    let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:2 4) in
    let hosts = Array.of_list (Topology.hosts (Net.topology net)) in
    let nh = Array.length hosts in
    let config = { Runtime.default_config with Runtime.nversion } in
    let rt = Runtime.create ~config net [ (App_sig.app (module Apps.Hub)) ] in
    Runtime.step rt;
    let counter = ref 0 in
    let drive () =
      incr counter;
      Clock.advance_by clock 0.05;
      let src = hosts.(!counter mod nh)
      and dst = hosts.((!counter + 1) mod nh) in
      Net.inject net src (Openflow.Packet.tcp ~src_host:src ~dst_host:dst ());
      Runtime.step rt
    in
    (rt, drive)
  in
  let _, drive_solo = world None in
  let _, drive_panel =
    world
      (Some
         {
           Legosdn.Voter.nv_replicas = 3;
           nv_adaptive = false;
           nv_shed_after = 8;
         })
  in
  let shed_rt, drive_shed =
    world
      (Some
         {
           Legosdn.Voter.nv_replicas = 3;
           nv_adaptive = true;
           nv_shed_after = 4;
         })
  in
  (* Warm all three past the adaptive panel's shed point so the "shed"
     drive measures single-variant dispatch, not elections. *)
  for _ = 1 to 40 do
    drive_solo ();
    drive_panel ();
    drive_shed ()
  done;
  nversion_stats :=
    [
      ( "nversion-sheds-before-measure",
        float_of_int
          Legosdn.Metrics.(get (Runtime.metrics shed_rt) nv_sheds) );
    ];
  [
    Test.make ~name:"event-solo-hub-linear-4" (Staged.stage drive_solo);
    Test.make ~name:"event-panel3-hub-linear-4" (Staged.stage drive_panel);
    Test.make ~name:"event-shed3-hub-linear-4" (Staged.stage drive_shed);
  ]

(* ------------------------------------------------------------------ *)

type row = { group : string; test : string; ns_per_run : float; r2 : float }

(* All measurement progress goes to stderr so that stdout carries nothing
   but the JSON when [--json -] is used (and so that [--json FILE] runs
   can be piped or captured without interleaved progress lines). *)
let measure_group ~quota (experiment, tests) =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:None () in
  let raw =
    Benchmark.all cfg [ instance ] (Test.make_grouped ~name:experiment (tests ()))
  in
  let results = Analyze.all ols instance raw in
  Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) results []
  |> List.sort compare
  |> List.map (fun (name, ols_result) ->
         let estimate =
           match Analyze.OLS.estimates ols_result with
           | Some [ e ] -> e
           | _ -> nan
         in
         let r2 =
           match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
         in
         (* Bechamel reports "<group>/<test>"; keep the bare test name so
            consumers can address tests without knowing their cluster. *)
         let prefix = experiment ^ "/" in
         let test =
           if String.length name > String.length prefix
              && String.sub name 0 (String.length prefix) = prefix
           then
             String.sub name (String.length prefix)
               (String.length name - String.length prefix)
           else name
         in
         { group = experiment; test; ns_per_run = estimate; r2 })

(* A noisy OLS fit (low r²) means the reported slope is not trustworthy:
   re-measure the whole group with a doubled quota (more samples damp
   scheduler noise and GC jitter) and keep the best fit per test, up to
   three attempts. Groups that still miss [min_r2] are reported with a
   warning — the JSON carries the honest r² either way, and CI asserts on
   it for the groups it consumes. *)
let run_group ~quota ~min_r2 (experiment, title, tests) =
  Printf.eprintf "\n### %s — %s\n%!" experiment title;
  let acceptable r = Float.is_nan r.r2 || r.r2 >= min_r2 in
  let better a b = if Float.is_nan b.r2 || a.r2 >= b.r2 then a else b in
  let merge best rows =
    List.map
      (fun r ->
        match List.find_opt (fun b -> b.test = r.test) best with
        | Some b -> better r b
        | None -> r)
      rows
  in
  let rec attempt q tries best =
    let rows = measure_group ~quota:q (experiment, tests) in
    let best = merge best rows in
    if List.for_all acceptable best || tries >= 3 then best
    else begin
      Printf.eprintf
        "  (noisy fit: r² < %.2f — re-measuring with quota %.2fs)\n%!" min_r2
        (q *. 2.);
      attempt (q *. 2.) (tries + 1) best
    end
  in
  let rows = attempt quota 1 [] in
  List.iter
    (fun r ->
      Printf.eprintf "  %-42s %14.1f ns/run   (r²=%.3f)%s\n%!"
        (r.group ^ "/" ^ r.test) r.ns_per_run r.r2
        (if acceptable r then "" else "   [below --min-r2]"))
    rows;
  rows

(* Hand-rolled JSON (no json library in the tree): the grammar here is
   numbers and [A-Za-z0-9._+-] names, so escaping is just strings. *)
let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_nan f then "null" else Printf.sprintf "%.1f" f

let find_ns rows name =
  List.find_map
    (fun r -> if r.test = name then Some r.ns_per_run else None)
    rows

let ratio rows ~num ~den =
  match (find_ns rows num, find_ns rows den) with
  | Some n, Some d when d > 0. && not (Float.is_nan n || Float.is_nan d) ->
      Some (n /. d)
  | _ -> None

let write_json path rows =
  let oc = if path = "-" then stdout else open_out path in
  output_string oc "{\n  \"benchmarks\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"group\": \"%s\", \"test\": \"%s\", \"ns_per_run\": %s, \
         \"r_square\": %s}%s\n"
        (json_escape r.group) (json_escape r.test)
        (json_float r.ns_per_run)
        (if Float.is_nan r.r2 then "null" else Printf.sprintf "%.3f" r.r2)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ],\n  \"derived\": {\n";
  let derived =
    List.filter_map
      (fun (key, num, den) ->
        Option.map
          (fun v -> Printf.sprintf "    \"%s\": %.2f" key v)
          (ratio rows ~num ~den))
      [
        ( "full-over-warm-speedup",
          "invariant-check-fat-tree-k4-full",
          "invariant-check-fat-tree-k4-warm" );
        ( "cold-over-full-overhead",
          "invariant-check-fat-tree-k4-cold",
          "invariant-check-fat-tree-k4-full" );
        ( "flow-mods-full-over-incremental-speedup",
          "check-flow-mods-full",
          "check-flow-mods-incremental" );
        ("obs-dispatch-overhead", "dispatch-tracing-on", "dispatch-tracing-off");
        ("obs-screen-overhead", "screen-tracing-on", "screen-tracing-off");
        ("ckpt-take-full-over-delta", "take-full-1000-macs",
         "take-delta-1000-macs");
        ( "failover-replication-overhead",
          "drive-tick-cluster-3-fat-tree-k4",
          "drive-tick-solo-fat-tree-k4" );
        ( "dispatch-seq-over-sharded-speedup",
          "flood-step-seq-fat-tree-k8",
          "flood-step-sharded-fat-tree-k8" );
        ( "policy-compromise-over-transform",
          "verified-compromise-linear-8",
          "transform-baseline-switch-down" );
        ( "nversion-panel-overhead",
          "event-panel3-hub-linear-4",
          "event-solo-hub-linear-4" );
        ( "nversion-shed-overhead",
          "event-shed3-hub-linear-4",
          "event-solo-hub-linear-4" );
      ]
  in
  (* Exact counters from the ckpt cluster's byte-accounting experiment
     (empty unless that cluster ran). *)
  let derived =
    derived
    @ List.filter_map
        (fun k ->
          match
            ( find_ns rows (Printf.sprintf "trace-step-fat-tree-k%d" k),
              List.assoc_opt
                (Printf.sprintf "scale-flood-events-per-step-k%d" k)
                !scale_stats )
          with
          | Some ns, Some ev when ns > 0. && not (Float.is_nan ns) ->
              Some
                (Printf.sprintf "    \"scale-events-per-sec-k%d\": %.2f" k
                   (ev *. 1e9 /. ns))
          | _ -> None)
        [ 4; 8; 16 ]
    (* Compile throughput in rows/second, from the policy cluster's
       row-count stats (empty unless that cluster ran). *)
    @ List.filter_map
        (fun (test, stat, key) ->
          match (find_ns rows test, List.assoc_opt stat !policy_stats) with
          | Some ns, Some nrows when ns > 0. && not (Float.is_nan ns) ->
              Some
                (Printf.sprintf "    \"%s\": %.2f" key (nrows *. 1e9 /. ns))
          | _ -> None)
        [
          ( "compile-firewall-16sw",
            "policy-rows-firewall-16sw",
            "policy-compile-rows-per-sec-firewall" );
          ( "compile-routes-16sw-64dst",
            "policy-rows-routes-16sw-64dst",
            "policy-compile-rows-per-sec-routes" );
        ]
    @ List.map
        (fun (key, v) ->
          Printf.sprintf "    \"%s\": %.2f" (json_escape key) v)
        (!ckpt_stats @ !failover_stats @ !dispatch_stats @ !scale_stats
       @ !policy_stats @ !nversion_stats)
  in
  output_string oc (String.concat ",\n" derived);
  output_string oc "\n  }\n}\n";
  if path = "-" then flush oc
  else begin
    close_out oc;
    Printf.eprintf "\nwrote %s\n%!" path
  end

(* Test lists are thunks so that [--only] skips the setup work (traffic
   population, scenario builds) of every unselected cluster. *)
let groups () =
  [
    ("E4", "isolation / control-loop latency", bench_isolation);
    ("E5", "checkpoint cost vs state size", bench_checkpoint);
    ("E6", "crash-recovery cost vs transaction size", bench_recovery);
    ("E8-E9", "NetLog vs delay-buffer transactions", bench_netlog);
    ("substrate", "codec / data plane / invariant checker", bench_substrate);
    ("crashpad", "policy / transform / quarantine unit costs",
     bench_crashpad_machinery);
    ("topology-scale", "STP + invariants on a fat-tree", bench_topology_scale);
    ("E20", "control-channel model + reliable delivery", bench_channel);
    ("scenario", "end-to-end 10-virtual-second scenario runs", bench_scenario);
    ("invariants", "incremental vs full invariant checking", bench_incremental);
    ("obs", "tracing overhead on the hot paths (E22)", bench_obs);
    ("ckpt", "delta checkpointing: take/restore cost + bytes (E23)", bench_ckpt);
    ("failover", "replicated cluster: fail-over + replication cost (E24)",
     bench_failover);
    ("dispatch", "sequential vs sharded/batched event dispatch (E25)",
     bench_dispatch);
    ("scale", "fat-tree k=16: interned matches, bounded cache, trace load (E26)",
     bench_scale);
    ("policy", "declarative intent: compile + verified compromise (E27)",
     bench_policy);
    ("nversion", "N-version voting panels: solo vs panel vs shed (E28)",
     bench_nversion);
  ]

let () =
  let json_path = ref "" in
  let only = ref "" in
  let quota = ref 0.25 in
  let min_r2 = ref 0.95 in
  Arg.parse
    [
      ("--json", Arg.Set_string json_path,
       "FILE  also write results as JSON to FILE ('-' for stdout)");
      ("--only", Arg.Set_string only,
       "GROUP  run only the named cluster (e.g. invariants, E4)");
      ("--quota", Arg.Set_float quota,
       "SECONDS  per-test measurement budget (default 0.25)");
      ("--min-r2", Arg.Set_float min_r2,
       "R  re-measure groups whose OLS fit has r-square below R \
        (default 0.95; 0 disables)");
    ]
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench [--only GROUP] [--quota SECONDS] [--min-r2 R] [--json FILE]";
  Printf.eprintf "LegoSDN benchmark harness (see EXPERIMENTS.md for the index)\n";
  let selected =
    if !only = "" then groups ()
    else
      match List.filter (fun (g, _, _) -> g = !only) (groups ()) with
      | [] ->
          Printf.eprintf "unknown group %S (known: %s)\n" !only
            (String.concat ", " (List.map (fun (g, _, _) -> g) (groups ())));
          exit 2
      | gs -> gs
  in
  let rows =
    List.concat_map (run_group ~quota:!quota ~min_r2:!min_r2) selected
  in
  if !json_path <> "" then write_json !json_path rows
