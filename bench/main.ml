(* Wall-clock micro-benchmarks, one group per experiment of
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
    let inst', _ = App_sig.handle !inst App_sig.null_context ev in
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

let engine_bench (type e) (module E : Legosdn.Txn_engine.S with type t = e)
    (engine : e) name n finish =
  let cmds = txn_commands n in
  Test.make ~name
    (Staged.stage (fun () ->
         let txn = E.begin_txn engine ~app:"bench" in
         List.iter (fun c -> ignore (E.apply engine txn c)) cmds;
         match finish with
         | `Commit ->
             E.commit engine txn;
             (* Leave the table as found so iterations stay uniform. *)
             let cleanup = E.begin_txn engine ~app:"clean" in
             ignore
               (E.apply engine cleanup
                  (Command.Flow
                     (1, Openflow.Message.flow_delete Openflow.Ofp_match.any)));
             E.commit engine cleanup
         | `Abort -> E.abort engine txn))

let bench_netlog () =
  List.concat_map
    (fun n ->
      let net =
        Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 2)
      in
      ignore (Net.poll net);
      let netlog = engine_bench (module Legosdn.Netlog) (Legosdn.Netlog.create net) in
      let buffer =
        engine_bench (module Legosdn.Delay_buffer) (Legosdn.Delay_buffer.create net)
      in
      [
        netlog (Printf.sprintf "netlog-commit-%d" n) n `Commit;
        netlog (Printf.sprintf "netlog-abort-%d" n) n `Abort;
        buffer (Printf.sprintf "buffer-commit-%d" n) n `Commit;
        buffer (Printf.sprintf "buffer-abort-%d" n) n `Abort;
      ])
    [ 1; 16; 64 ]

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
   from the checkpoint store, and their ratio carries the group's floor. *)

module Checkpoint = Legosdn.Checkpoint

(* One availability-style run: warm the app on an 8-host pair mix, then
   keep replaying the same pairs (steady state — learned state no longer
   changes), checkpointing with k=1 so every event pays a snapshot. Only
   steady-state bytes are reported; the warm-up is charged to neither. *)
let steady_state_bytes make_ckpt =
  let c = make_ckpt () in
  let live = ref (App_sig.instantiate (App_sig.app (module Apps.Learning_switch))) in
  let feed src dst =
    if Checkpoint.due c then Checkpoint.take c (App_sig.snapshot !live);
    let ev = packet_in_event ~sid:1 ~in_port:src src dst in
    let updated, _ = App_sig.handle !live App_sig.null_context ev in
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
  let full_bytes, _ = steady_state_bytes (fun () -> Checkpoint.create ~every:1 ()) in
  let delta_bytes, delta_c =
    steady_state_bytes (fun () ->
        Checkpoint.create_delta ~cadence:(Checkpoint.Every 1) ())
  in
  let inst = learning_switch_with_macs 1_000 in
  let image = App_sig.snapshot inst in
  (* Each run serializes the state and stores the fresh bytes, as a take
     of a changed state does. *)
  let take_fresh c () = Checkpoint.take c (App_sig.snapshot inst) in
  let full = Checkpoint.create ~every:1 () in
  Checkpoint.take full image;
  let delta = Checkpoint.create_delta ~cadence:(Checkpoint.Every 1) () in
  Checkpoint.take delta image;
  let unchanged = Checkpoint.create ~every:1 () in
  Checkpoint.take unchanged image;
  let restore_test n =
    let c = Checkpoint.create_delta ~cadence:(Checkpoint.Every 100_000) () in
    Checkpoint.take c image;
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
                   let updated, _ =
                     App_sig.handle !restored App_sig.null_context ev
                   in
                   restored := updated)
                 journal))
  in
  ( [
      Test.make ~name:"take-full-1000-macs" (Staged.stage (take_fresh full));
      (* Steady state for the delta store: every chunk hits, so this
         measures the chunking + digest walk rather than storage. *)
      Test.make ~name:"take-delta-1000-macs"
        (Staged.stage (take_fresh delta));
      (* The same bytes every run: the kept image's bookkeeping. *)
      Test.make ~name:"take-unchanged-1000-macs"
        (Staged.stage (fun () -> Checkpoint.take unchanged image));
    ]
    @ List.map restore_test [ 0; 16; 64; 256 ],
    Fun.const
    [
      ("ckpt-steady-full-bytes-written", full_bytes);
      ("ckpt-steady-delta-bytes-written", delta_bytes);
      ("ckpt-chunk-hits", float_of_int (Checkpoint.chunk_hits delta_c));
      ("ckpt-chunk-misses", float_of_int (Checkpoint.chunk_misses delta_c));
      ( "ckpt-bytes-deduped",
        float_of_int (Checkpoint.chunk_bytes_deduped delta_c) );
    ] )

(* ------------------------------------------------------------------ *)
(* E22 — observability overhead: the byzantine screen with the no-op
   tracer vs a live ring-buffer tracer, plus the tracer's unit costs.
   perfbench's obs.trace_overhead measures the whole traced loop. *)

let bench_obs () =
  (* The per-transaction screening call (E21's hot path), traced vs not. *)
  let screen_net = Net.create (Clock.create ()) (Topo_gen.fat_tree 4) in
  ignore (Net.poll screen_net);
  let screen_engine = Invariants.Incremental.create screen_net in
  ignore (Invariants.Incremental.check screen_engine);
  (* A modest ring reaches wraparound (steady state) during warm-up, so
     the measured slope is the tracer's per-span work rather than the
     live-heap growth of a still-filling 65536-slot ring. *)
  let screen_tracer =
    Obs.Tracer.create ~capacity:8192
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
   traffic (an exact counter from one scripted kill run), and the
   wall-clock overhead of driving a 3-replica cluster versus a single
   controller on the same fat-tree workload (the
   "failover-replication-overhead" ratio, floor <= 2x). *)

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
  let counters =
    [
      ( "failover-latency-virtual-s",
        match Cluster.failover_latencies killed with
        | d :: _ -> d
        | [] -> Float.nan );
      ( "failover-replication-bytes",
        float_of_int (Cluster.replication_bytes killed) );
      ( "failover-state-transfers",
        float_of_int (Cluster.transfers_shipped killed) );
    ]
  in
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
  ( [
      Test.make ~name:"drive-tick-cluster-3-fat-tree-k4"
        (Staged.stage drive_cluster);
      Test.make ~name:"drive-tick-solo-fat-tree-k4" (Staged.stage drive_solo);
    ],
    Fun.const counters )

(* ------------------------------------------------------------------ *)

(* E25 — batched event dispatch. A packet-in flood on a fat-tree k=8
   against an ARP responder warmed with a directory-scale binding set
   (16k entries). Sequential dispatch owes a checkpoint at the default
   k=1 cadence and a barrier per state-altering message for every event;
   batched dispatch owes them once per batch and touched switch. The
   responder's answers leave its state as it was, so those checkpoints
   keep the stored image and the two modes now cost about the same: the
   floors check what the group still claims, that both drives process
   the whole burst in every step, the timed steps included, without
   shedding, so the ns/run ratio (reported, not floored) is the
   events/sec ratio. The "sharded" row and metric names predate the
   batched mode's name and are kept so BENCH_dispatch.json stays
   comparable. *)

let dispatch_burst = 32

let bench_dispatch () =
  let burst = dispatch_burst in
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
    (rt, drive, counter)
  in
  let seq_rt, drive_seq, seq_steps = world Runtime.Sequential in
  let sh_rt, drive_sh, sh_steps = world Runtime.default_sharded in
  (* Warm both worlds until the switches' xid dedup windows and packet
     buffers are full (about 5,000 steps), so the heap stops growing
     under the timed steps. *)
  for _ = 1 to 6_000 do
    drive_seq ();
    drive_sh ()
  done;
  (* Events per step over every step from here on, the timed ones
     included. *)
  let per_step rt steps =
    let events = Runtime.events_processed rt and from = !steps in
    fun () ->
      float_of_int (Runtime.events_processed rt - events)
      /. float_of_int (!steps - from)
  in
  let seq_per_step = per_step seq_rt seq_steps
  and sh_per_step = per_step sh_rt sh_steps in
  drive_seq ();
  drive_sh ();
  ( [
      Test.make ~name:"flood-step-seq-fat-tree-k8" (Staged.stage drive_seq);
      Test.make ~name:"flood-step-sharded-fat-tree-k8" (Staged.stage drive_sh);
    ],
    fun () ->
      let seq = seq_per_step () and sh = sh_per_step () in
      [
        ("dispatch-flood-events-per-step-seq", seq);
        ("dispatch-flood-events-per-step-sharded", sh);
        ("dispatch-flood-events-per-step-gap", Float.abs (seq -. sh));
        ("dispatch-flood-shed-seq", float_of_int (Runtime.events_shed seq_rt));
        ( "dispatch-flood-shed-sharded",
          float_of_int (Runtime.events_shed sh_rt) );
      ] )

(* ------------------------------------------------------------------ *)

(* E26 — scale to fat-tree k=16. Two exact sub-experiments (perfbench's
   proxy-arp-k16 workload times the k=16 event loop):

   - match-storage interning: install one dl_dst rule per (switch, host)
     pair of a k=16 fabric (320 x 1024 entries sharing 1024 distinct
     patterns) through the production path (Flow_entry.make ->
     Flow_table.add), then measure the heap reachable from the stored
     patterns with interning on vs off. The ratio is the fabric-wide
     match-storage saving (budget: >= 4x).
   - bounded trace cache: a trace-driven learning-switch campaign on a
     k=4 fat-tree with a deliberately tiny [trace_cache_budget], sampling
     the checker's resident cache bytes after every step. Evictions > 0 and
     peak <= budget show the cache holds memory flat under load. *)

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

let bench_scale () =
  let entries, interned_words = match_storage_words ~interned:true 16 in
  let _, fresh_words = match_storage_words ~interned:false 16 in
  ( [],
    Fun.const
      ([
         ("scale-match-entries", float_of_int entries);
         ("scale-match-words-interned", float_of_int interned_words);
         ("scale-match-words-fresh", float_of_int fresh_words);
       ]
      @ bounded_cache_campaign ()) )

(* ------------------------------------------------------------------ *)
(* E27 — declarative policy compiler: compile throughput, plus the full
   pipeline a policy-derived compromise pays (recompile against the
   post-failure topology, diff against installed intent, differential
   agreement on a probe set, invariant check over the flow-mods),
   against the hand-coded transform it subsumes. *)

let bench_policy () =
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
    let agreed = Policy.agrees ~ports pol next ~probes in
    let snap = Invariants.Snapshot.of_net net in
    let violations = Invariants.Checker.check_flow_mods snap mods in
    ignore agreed;
    ignore violations
  in
  let links_of _ = chain_links 8 in
  let rows pol =
    float_of_int (Policy.table_rows (Policy.compile ~switches:(switches 16) pol))
  in
  ( [
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
             ignore
               (Legosdn.Transform.equivalents ~links_of (Event.Switch_down 4))));
    ],
    Fun.const
    [
      ("policy-rows-firewall-16sw", rows firewall);
      ("policy-rows-routes-16sw-64dst", rows routes_16x64);
    ] )

(* ------------------------------------------------------------------ *)
(* E28 — N-version voting panels. One punted packet against a hub (every
   event votes: the hub never installs rules, so steady state is one
   election per injection) under three shapes: a solo app, a full
   3-variant panel, and an adaptive panel that has shed to its primary.
   Every app is a [Voter] unit, so the "solo" rows measure a panel of
   one; they keep their names so BENCH_nversion.json stays comparable.
   The panel pays 3 deliveries + an election per event; the shed panel
   must be nearly indistinguishable from solo — that ratio is the MORPH
   claim, and the group's floor budgets it. *)

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
  ( [
      Test.make ~name:"event-solo-hub-linear-4" (Staged.stage drive_solo);
      Test.make ~name:"event-panel3-hub-linear-4" (Staged.stage drive_panel);
      Test.make ~name:"event-shed3-hub-linear-4" (Staged.stage drive_shed);
    ],
    Fun.const
    [
      ( "nversion-sheds-before-measure",
        float_of_int Legosdn.Metrics.(get (Runtime.metrics shed_rt) nv_sheds)
      );
    ] )

(* ------------------------------------------------------------------ *)

(* The harness. A group names its timed tests and the exact counters its
   setup or its timed runs produced, the ratios it derives from them, and
   the floors those values must clear. Ratios and floors read one
   environment: each test's fitted seconds per run and each counter or
   ratio, by name. A breached floor makes the run exit 1 after the JSON
   is written. *)

type floor =
  | At_least of string * float
  | At_most of string * float
  | Above of string * float
  | Fits_at_least of float  (** every row of the group has r² >= bound *)

let describe = function
  | At_least (k, b) -> Printf.sprintf "%s >= %g" k b
  | At_most (k, b) -> Printf.sprintf "%s <= %g" k b
  | Above (k, b) -> Printf.sprintf "%s > %g" k b
  | Fits_at_least b -> Printf.sprintf "every r_square >= %g" b

let holds v = function
  | At_least (_, b) | Fits_at_least b -> v >= b
  | At_most (_, b) -> v <= b
  | Above (_, b) -> v > b

type group = {
  id : string;
  title : string;
  setup : unit -> Test.t list * (unit -> (string * float) list);
      (** Runs only when the group is selected, so [--only] skips the
          setup work (traffic population, world builds) of the others.
          Its counters are read after the tests are timed, so a counter
          can speak for the timed runs. *)
  ratios : (string * string * string) list;  (** key, numerator, denominator *)
  floors : floor list;
  slices : int;  (** turns the quota is measured in; see {!measure} *)
  window : float option;  (** seconds one fit may span; see {!measure} *)
}

let group ?(ratios = []) ?(floors = []) ?(slices = 1) ?window id title setup =
  { id; title; setup; ratios; floors; slices; window }

let timed tests () = (tests (), Fun.const [])

let groups =
  [
    group "E4" "isolation / control-loop latency" (timed bench_isolation);
    group "E5" "checkpoint cost vs state size" (timed bench_checkpoint);
    group "E6" "crash-recovery cost vs transaction size" (timed bench_recovery);
    group "E8-E9" "NetLog vs delay-buffer transactions" (timed bench_netlog);
    group "E20" "control-channel model + reliable delivery" (timed bench_channel);
    group "invariants" "incremental vs full invariant checking"
      (timed bench_incremental)
      ~ratios:
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
        ];
    group "obs" "tracing overhead on the byzantine screen (E22)"
      (timed bench_obs)
      ~ratios:
        [ ("obs-screen-overhead", "screen-tracing-on", "screen-tracing-off") ];
    group "ckpt" "delta checkpointing: take/restore cost + bytes (E23)"
      bench_ckpt
      ~ratios:
        [
          ("ckpt-take-full-over-delta", "take-full-1000-macs",
           "take-delta-1000-macs");
          ( "ckpt-bytes-ratio-full-over-delta",
            "ckpt-steady-full-bytes-written",
            "ckpt-steady-delta-bytes-written" );
        ]
      ~floors:[ At_least ("ckpt-bytes-ratio-full-over-delta", 3.0) ];
    group "failover" "replicated cluster: fail-over + replication cost (E24)"
      bench_failover ~slices:4
      ~ratios:
        [
          ( "failover-replication-overhead",
            "drive-tick-cluster-3-fat-tree-k4",
            "drive-tick-solo-fat-tree-k4" );
        ]
      ~floors:[ At_most ("failover-replication-overhead", 2.0) ];
    group "dispatch" "sequential vs batched event dispatch (E25)"
      bench_dispatch ~window:0.1
      ~ratios:
        [
          ( "dispatch-seq-over-sharded-speedup",
            "flood-step-seq-fat-tree-k8",
            "flood-step-sharded-fat-tree-k8" );
        ]
      ~floors:
        [
          At_least
            ("dispatch-flood-events-per-step-seq", float_of_int dispatch_burst);
          At_most ("dispatch-flood-events-per-step-gap", 0.);
          At_most ("dispatch-flood-shed-seq", 0.);
          At_most ("dispatch-flood-shed-sharded", 0.);
          Fits_at_least 0.95;
        ];
    group "scale" "fat-tree k=16: interned matches, bounded cache (E26)"
      bench_scale
      ~ratios:
        [
          ( "scale-match-intern-ratio",
            "scale-match-words-fresh",
            "scale-match-words-interned" );
          ( "scale-trace-cache-peak-over-budget",
            "scale-trace-cache-peak-bytes",
            "scale-trace-cache-budget-bytes" );
        ]
      ~floors:
        [
          At_least ("scale-match-intern-ratio", 4.0);
          Above ("scale-trace-cache-evictions", 0.);
          At_most ("scale-trace-cache-peak-over-budget", 1.0);
        ];
    group "policy" "declarative intent: compile + verified compromise (E27)"
      bench_policy
      ~ratios:
        [
          ( "policy-compile-rows-per-sec-firewall",
            "policy-rows-firewall-16sw",
            "compile-firewall-16sw" );
          ( "policy-compile-rows-per-sec-routes",
            "policy-rows-routes-16sw-64dst",
            "compile-routes-16sw-64dst" );
          ( "policy-compromise-over-transform",
            "verified-compromise-linear-8",
            "transform-baseline-switch-down" );
        ]
      ~floors:
        [
          At_least ("policy-compile-rows-per-sec-routes", 1000.0);
          At_most ("verified-compromise-linear-8", 0.1);
        ];
    group "nversion" "N-version voting panels: solo vs panel vs shed (E28)"
      bench_nversion ~slices:4
      ~ratios:
        [
          ( "nversion-panel-overhead",
            "event-panel3-hub-linear-4",
            "event-solo-hub-linear-4" );
          ( "nversion-shed-overhead",
            "event-shed3-hub-linear-4",
            "event-solo-hub-linear-4" );
        ]
      ~floors:
        [
          At_most ("nversion-shed-overhead", 1.34);
          Above ("nversion-sheds-before-measure", 0.);
        ];
  ]

type row = {
  group : string;
  test : string;
  ns_per_run : float;
  r2 : float;
  flagged : bool;  (** r² below [--min-r2], or not a number *)
}

(* A group measures its tests in [slices] turns: each turn gives every
   test a slice of its quota, starting at the run count where its last
   slice stopped. The samples are those one uninterrupted measurement
   would take, but every test's samples span the same stretch of wall
   time, so a host that slows down for a while slows all of the group's
   rows alike and the ratios between them hold still. Slicing lowered
   the `dispatch` group's fits, so only a group whose floor compares two
   short rows asks for more than one (E29).

   A group with a [window] times each test in windows of that many
   seconds instead, as many as the quota holds, each a fit of its own
   over samples run back to back: bechamel's compaction before every
   sample would spread a window over the whole quota. A host's speed
   holds for a while and then moves (a fixed arithmetic loop on a 2-core
   VM kept one speed through 83% of its 0.1 s windows, but 9% of its 1 s
   windows), and samples timed on both sides of a move bend a fit. The
   row keeps the fastest window whose fit clears [min_r2], since the
   host only ever adds time, or its best fit if none does (E25).

   All measurement progress goes to stderr so that stdout carries nothing
   but the JSON when [--json -] is used (and so that [--json FILE] runs
   can be piped or captured without interleaved progress lines). *)
let measure ~quota ~slices ~window ~min_r2 id tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let elts = Test.elements (Test.make_grouped ~name:id tests) in
  let raw = Hashtbl.create 16 in
  (match window with
  | Some w ->
      let cfg =
        Benchmark.cfg ~limit:1000 ~stabilize:false
          ~quota:(Time.second (Float.min w quota))
          ~kde:None ()
      in
      let fit b = Analyze.one ols instance b in
      let r2 b = Option.value (Analyze.OLS.r_square (fit b)) ~default:nan in
      let slope b =
        match Analyze.OLS.estimates (fit b) with Some [ e ] -> e | _ -> nan
      in
      let pick a b =
        match (r2 a >= min_r2, r2 b >= min_r2) with
        | true, true -> if slope b < slope a then b else a
        | true, false -> a
        | false, true -> b
        | false, false -> if r2 b > r2 a then b else a
      in
      let windows = max 1 (int_of_float (quota /. w)) in
      List.iter
        (fun elt ->
          let run _ = Benchmark.run cfg [ instance ] elt in
          Hashtbl.replace raw (Test.Elt.name elt)
            (List.fold_left pick (run ()) (List.init (windows - 1) run)))
        elts
  | None ->
      let slice start =
        Benchmark.cfg ~start ~limit:1000
          ~quota:(Time.second (quota /. float slices))
          ~kde:None ()
      in
      for _ = 1 to slices do
        List.iter
          (fun elt ->
            let name = Test.Elt.name elt in
            let prior = Hashtbl.find_opt raw name in
            let start =
              match prior with
              | Some { Benchmark.lr; _ } when Array.length lr > 0 ->
                  int_of_float (Measurement_raw.run lr.(Array.length lr - 1))
                  + 1
              | Some _ | None -> 1
            in
            let b = Benchmark.run (slice start) [ instance ] elt in
            Hashtbl.replace raw name
              (match prior with
              | None -> b
              | Some p -> { p with lr = Array.append p.Benchmark.lr b.lr }))
          elts
      done);
  (* Bechamel reports "<group>/<test>"; keep the bare test name so
     consumers can address tests without knowing their group. *)
  let prefix = String.length id + 1 in
  Hashtbl.fold
    (fun name ols_result acc ->
      let ns_per_run =
        match Analyze.OLS.estimates ols_result with
        | Some [ e ] -> e
        | _ -> nan
      in
      let r2 = Option.value (Analyze.OLS.r_square ols_result) ~default:nan in
      let test = String.sub name prefix (String.length name - prefix) in
      { group = id; test; ns_per_run; r2; flagged = false } :: acc)
    (Analyze.all ols instance raw) []
  |> List.sort compare

(* A noisy OLS fit (low r², or none at all) means the reported slope is
   not trustworthy: re-measure the whole group, setup included, with a
   doubled quota (more samples damp scheduler noise and GC jitter) and
   keep the best fit per test, up to three attempts. Rows that still miss
   [min_r2] are flagged — the JSON carries the honest r² either way. *)
let run_group ~quota ~min_r2 g =
  Printf.eprintf "\n### %s — %s\n%!" g.id g.title;
  let flagged r = not (r.r2 >= min_r2) in
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
    let tests, counters = g.setup () in
    let best =
      match tests with
      | [] -> []
      | _ ->
          merge best
            (measure ~quota:q ~slices:g.slices ~window:g.window ~min_r2 g.id
               tests)
    in
    if List.exists flagged best && tries < 3 then begin
      Printf.eprintf
        "  (noisy fit: r² < %.2f — re-measuring with quota %.2fs)\n%!" min_r2
        (q *. 2.);
      attempt (q *. 2.) (tries + 1) best
    end
    else (List.map (fun r -> { r with flagged = flagged r }) best, counters ())
  in
  let rows, counters = attempt quota 1 [] in
  List.iter
    (fun r ->
      Printf.eprintf "  %-42s %14.1f ns/run   (r²=%.3f)%s\n%!"
        (r.group ^ "/" ^ r.test) r.ns_per_run r.r2
        (if r.flagged then "   [below --min-r2]" else ""))
    rows;
  let lookup values name =
    match List.find_opt (fun r -> r.test = name) rows with
    | Some r -> r.ns_per_run *. 1e-9
    | None -> Option.value (List.assoc_opt name values) ~default:nan
  in
  let values =
    counters
    @ List.map
        (fun (key, num, den) -> (key, lookup counters num /. lookup counters den))
        g.ratios
  in
  List.iter (fun (k, v) -> Printf.eprintf "  %-42s %14.2f\n%!" k v) values;
  let verdicts =
    List.map
      (fun floor ->
        let v =
          match floor with
          | At_least (k, _) | At_most (k, _) | Above (k, _) -> lookup values k
          | Fits_at_least _ ->
              List.fold_left (fun m r -> Float.min m r.r2) infinity rows
        in
        let ok = holds v floor in
        Printf.eprintf "  floor %-36s %14.3f   %s\n%!" (describe floor) v
          (if ok then "ok" else "BREACHED");
        (g.id, floor, v, ok))
      g.floors
  in
  (rows, values, verdicts)

(* Hand-rolled JSON (no json library in the tree): every string is a
   group, test, counter or floor name of this file, none of which needs
   escaping; a missing or infinite number is null. *)
let json_number fmt f = if Float.is_finite f then Printf.sprintf fmt f else "null"

let write_json path ~quota ~min_r2 rows values verdicts =
  let oc = if path = "-" then stdout else open_out path in
  let items = function
    | [] -> ""
    | l -> "\n" ^ String.concat ",\n" (List.map (fun s -> "    " ^ s) l) ^ "\n  "
  in
  Printf.fprintf oc "{\n  \"quota\": %g,\n  \"min_r2\": %g,\n" quota min_r2;
  Printf.fprintf oc "  \"benchmarks\": [%s],\n"
    (items
       (List.map
          (fun r ->
            Printf.sprintf
              "{\"group\": \"%s\", \"test\": \"%s\", \"ns_per_run\": %s, \
               \"r_square\": %s, \"flagged\": %b}"
              r.group r.test
              (json_number "%.1f" r.ns_per_run)
              (json_number "%.3f" r.r2) r.flagged)
          rows));
  Printf.fprintf oc "  \"derived\": {%s},\n"
    (items
       (List.map
          (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (json_number "%.2f" v))
          values));
  Printf.fprintf oc "  \"floors\": [%s]\n}\n"
    (items
       (List.map
          (fun (g, floor, v, holds) ->
            Printf.sprintf
              "{\"group\": \"%s\", \"floor\": \"%s\", \"value\": %s, \
               \"holds\": %b}"
              g (describe floor) (json_number "%g" v) holds)
          verdicts));
  if path = "-" then flush oc
  else begin
    close_out oc;
    Printf.eprintf "\nwrote %s\n%!" path
  end

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
       "GROUP  run only the named group (e.g. invariants, E4)");
      ("--quota", Arg.Set_float quota,
       "SECONDS  per-test measurement budget (default 0.25)");
      ("--min-r2", Arg.Set_float min_r2,
       "R  re-measure groups with a row whose OLS fit has r-square below R \
        or none, and flag such rows (default 0.95)");
    ]
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench [--only GROUP] [--quota SECONDS] [--min-r2 R] [--json FILE]";
  Printf.eprintf "LegoSDN benchmark harness (see EXPERIMENTS.md for the index)\n";
  let selected =
    if !only = "" then groups
    else
      match List.filter (fun g -> g.id = !only) groups with
      | [] ->
          Printf.eprintf "unknown group %S (known: %s)\n" !only
            (String.concat ", " (List.map (fun g -> g.id) groups));
          exit 2
      | gs -> gs
  in
  let results =
    List.map (run_group ~quota:!quota ~min_r2:!min_r2) selected
  in
  let rows = List.concat_map (fun (r, _, _) -> r) results in
  let values = List.concat_map (fun (_, v, _) -> v) results in
  let verdicts = List.concat_map (fun (_, _, v) -> v) results in
  if !json_path <> "" then
    write_json !json_path ~quota:!quota ~min_r2:!min_r2 rows values verdicts;
  let breached = List.filter (fun (_, _, _, holds) -> not holds) verdicts in
  List.iter
    (fun (g, floor, v, _) ->
      Printf.eprintf "floor breached: %s: %s (measured %g)\n" g (describe floor) v)
    breached;
  if breached <> [] then exit 1
