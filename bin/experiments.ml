(* Regenerates every table and figure of the paper (and the quantitative
   claims its text makes) from the simulator. See EXPERIMENTS.md for the
   index and DESIGN.md §4 for the mapping.

   Usage: dune exec bin/experiments.exe -- --exp all
          dune exec bin/experiments.exe -- --exp fig1 --exp availability *)

open Netsim
module Event = Controller.Event
module Command = Controller.Command
module App_sig = Controller.App_sig
module Monolithic = Controller.Monolithic
module Runtime = Legosdn.Runtime
module Sandbox = Legosdn.Sandbox
module Metrics = Legosdn.Metrics
module Recovery_policy = Legosdn.Recovery_policy
module Crashpad = Legosdn.Crashpad
module Ticket = Legosdn.Ticket
module Scenario = Workload.Scenario
module Traffic = Workload.Traffic

let section id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s — %s\n" id title;
  Printf.printf "================================================================\n"

let row fmt = Printf.printf fmt

let packet_in_event ?(sid = 1) ?(in_port = 100) ?(dport = 80) src dst =
  Event.Packet_in
    ( sid,
      {
        Openflow.Message.pi_buffer_id = None;
        pi_in_port = in_port;
        pi_reason = Openflow.Message.No_match;
        pi_packet = Openflow.Packet.tcp ~src_host:src ~dst_host:dst ~dport ();
      } )

let config_with ?(checkpoint_every = 1) policy =
  {
    Runtime.default_config with
    Runtime.checkpoint_every;
    Runtime.crashpad = { Crashpad.default_config with Crashpad.policy };
  }

(* ------------------------------------------------------------------ *)

let table1 () =
  section "E1 / Table 1" "SDN stack illustration";
  row "  %-28s| %-18s| %s\n" "Generic controller stack" "FloodLight stack"
    "This reproduction";
  row "  %-28s| %-18s| %s\n" "----------------------------" "------------------"
    "-----------------------";
  List.iter
    (fun (generic, floodlight, here) ->
      row "  %-28s| %-18s| %s\n" generic floodlight here)
    [
      ("Application", "RouteFlow", "lib/apps (router, lb, fw, ...)");
      ("Controller", "FloodLight", "lib/controller + lib/core");
      ("Server Operating System", "Ubuntu", "OCaml runtime (simulated)");
      ("Server Hardware", "Dell Blade", "netsim virtual host");
    ]

let table2 () =
  section "E2 / Table 2" "survey of SDN applications (the implemented suite)";
  row "  %-22s| %-14s| %s\n" "Application" "Developer" "Purpose";
  row "  %-22s| %-14s| %s\n" "----------------------" "--------------"
    "----------------------------";
  List.iter
    (fun (name, dev, purpose) -> row "  %-22s| %-14s| %s\n" name dev purpose)
    Apps.Suite.table2

(* ------------------------------------------------------------------ *)

let standard_traffic ?(poison_every = 0.) duration =
  let base =
    Traffic.schedule
      (Traffic.all_pairs_once ~hosts:[ 1; 2; 3 ] ~start:0.3 ~spacing:0.15
      @ Traffic.uniform_pairs ~seed:11 ~hosts:[ 1; 2; 3 ] ~flows:40 ~duration ())
  in
  (* Poisoned packets: their port-6666 payload trips the data-dependent
     parser bug in the app under test whenever they reach the controller. *)
  let poison =
    if poison_every <= 0. then []
    else
      let rec go t acc =
        if t >= duration then List.rev acc
        else
          go (t +. poison_every)
            ({
               Traffic.at = t;
               src = 1;
               packet = Openflow.Packet.tcp ~src_host:1 ~dst_host:2 ~dport:6666 ();
             }
            :: acc)
      in
      go 1.0 []
  in
  List.stable_sort
    (fun a b -> compare a.Traffic.at b.Traffic.at)
    (base @ poison)

let poisoned_bug =
  Apps.Bug_model.make (Apps.Bug_model.On_tp_dst 6666) Apps.Bug_model.Crash

let fig1_apps () : App_sig.app list =
  [
    Apps.Faulty.wrap ~bug:poisoned_bug (App_sig.app (module Apps.Learning_switch));
    (App_sig.app (module Apps.Firewall));
    (App_sig.app (module Apps.Monitor));
  ]

let fig1 () =
  section "E3 / Figure 1"
    "fate sharing: monolithic vs LegoSDN under one buggy app";
  let duration = 20. in
  let scenario =
    Scenario.make
      ~make_topology:(fun () -> Topo_gen.linear ~hosts_per_switch:1 3)
      ~duration
      ~traffic:(standard_traffic ~poison_every:5. duration)
      ~tick_interval:1. ~restart_delay:10. ()
  in
  let mono =
    Scenario.run scenario ~make_driver:(fun net ->
        Scenario.monolithic_driver (Monolithic.create net (fig1_apps ())))
  in
  let lego =
    Scenario.run scenario ~make_driver:(fun net ->
        Scenario.legosdn_driver (Runtime.create net (fig1_apps ())))
  in
  row "  %-38s| %-12s| %s\n" "" "monolithic" "legosdn";
  row "  %-38s| %-12s| %s\n" "--------------------------------------"
    "------------" "------------";
  let pct x = Printf.sprintf "%.2f%%" (100. *. x) in
  row "  %-38s| %-12s| %s\n" "controller availability"
    (pct mono.Scenario.controller_availability)
    (pct lego.Scenario.controller_availability);
  row "  %-38s| %-12d| %d\n" "whole-stack crashes"
    mono.Scenario.controller_crashes lego.Scenario.controller_crashes;
  List.iter
    (fun app ->
      let avail r =
        match List.assoc_opt app r.Scenario.app_availability with
        | Some a -> pct a
        | None -> "-"
      in
      row "  %-38s| %-12s| %s\n"
        (Printf.sprintf "%s availability" app)
        (avail mono) (avail lego))
    [ "learning_switch"; "firewall"; "monitor" ];
  row "  %-38s| %-12s| %s\n" "mean connectivity"
    (pct mono.Scenario.mean_connectivity)
    (pct lego.Scenario.mean_connectivity);
  row "  %-38s| %-12d| %d\n" "packets delivered" mono.Scenario.events_delivered
    lego.Scenario.events_delivered;
  row "\n  Reading: the buggy learning switch kills the whole monolithic\n";
  row "  stack (taking the blameless firewall and monitor with it); under\n";
  row "  LegoSDN only the failure is absorbed and everything keeps running.\n"

(* ------------------------------------------------------------------ *)

let availability () =
  section "E7" "availability under app-failure rate (poison-interval sweep)";
  let duration = 30. in
  let variants =
    [
      ("monolithic", `Mono);
      ("legosdn/no-compromise", `Lego (Recovery_policy.uniform Recovery_policy.No_compromise));
      ("legosdn/absolute", `Lego (Recovery_policy.uniform Recovery_policy.Absolute));
      ("legosdn/equivalence", `Lego (Recovery_policy.uniform Recovery_policy.Equivalence));
    ]
  in
  row "  %-24s| %-10s| %-11s| %-10s| %-13s| %s\n" "architecture" "poison (s)"
    "ctrl avail" "app avail" "connectivity" "stack crashes";
  row "  %s\n" (String.make 85 '-');
  List.iter
    (fun poison_every ->
      List.iter
        (fun (label, kind) ->
          let apps () : App_sig.app list =
            [
              Apps.Faulty.wrap ~bug:poisoned_bug (App_sig.app (module Apps.Learning_switch));
              (App_sig.app (module Apps.Firewall));
            ]
          in
          let scenario =
            Scenario.make
              ~make_topology:(fun () -> Topo_gen.linear ~hosts_per_switch:1 3)
              ~duration
              ~traffic:(standard_traffic ~poison_every duration)
              ~tick_interval:1. ~restart_delay:10. ()
          in
          let report =
            match kind with
            | `Mono ->
                Scenario.run scenario ~make_driver:(fun net ->
                    Scenario.monolithic_driver (Monolithic.create net (apps ())))
            | `Lego policy ->
                Scenario.run scenario ~make_driver:(fun net ->
                    Scenario.legosdn_driver
                      (Runtime.create ~config:(config_with policy) net (apps ())))
          in
          let app_avail =
            Option.value
              (List.assoc_opt "learning_switch" report.Scenario.app_availability)
              ~default:0.
          in
          row "  %-24s| %-10.1f| %10.2f%%| %9.2f%%| %12.2f%%| %d\n" label
            poison_every
            (100. *. report.Scenario.controller_availability)
            (100. *. app_avail)
            (100. *. report.Scenario.mean_connectivity)
            report.Scenario.controller_crashes)
        variants)
    [ 1.0; 3.0; 10.0 ]

(* ------------------------------------------------------------------ *)

let ckpt_k () =
  section "E5" "checkpoint-every-k: snapshot cost vs recovery replay (§5)";
  row "  %-4s| %-12s| %-16s| %-10s| %-9s| %s\n" "k" "checkpoints"
    "snapshot bytes" "crashes" "replayed" "dropped-in-replay";
  row "  %s\n" (String.make 75 '-');
  List.iter
    (fun k ->
      let clock = Clock.create () in
      let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
      (* A data-dependent parser bug: packets to port 6666 are poisoned.
         One arrives every 20 events. *)
      let bug = Apps.Bug_model.make (Apps.Bug_model.On_tp_dst 6666) Apps.Bug_model.Crash in
      let rt =
        Runtime.create
          ~config:(config_with ~checkpoint_every:k (Recovery_policy.uniform Recovery_policy.Absolute))
          net
          [ Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Learning_switch)) ]
      in
      Runtime.step rt;
      for i = 1 to 60 do
        Clock.advance_by clock 0.05;
        let dport = if i mod 20 = 0 then 6666 else 80 in
        Runtime.dispatch_event rt
          (packet_in_event ~dport (1 + (i mod 3)) (1 + ((i + 1) mod 3)))
      done;
      let box = Option.get (Runtime.sandbox rt "learning_switch") in
      let store = Sandbox.checkpoint_store box in
      let m = Runtime.metrics rt in
      row "  %-4d| %-12d| %-16d| %-10d| %-9d| %d\n" k
        (Legosdn.Checkpoint.snapshots_taken store)
        (Legosdn.Checkpoint.bytes_written store)
        Metrics.(get m crashes) Metrics.(get m replayed)
        Metrics.(get m dropped_in_replay))
    [ 1; 2; 5; 10; 25 ]

(* ------------------------------------------------------------------ *)

let partial_crasher n : App_sig.app =
  App_sig.app
  (module struct
    type state = int

    let name = "partial_crasher"
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

let recovery () =
  section "E6" "recovery anatomy vs transaction size";
  row "  %-10s| %-13s| %-14s| %-15s| %s\n" "txn ops" "rolled back"
    "detect (ms)" "table intact" "ticket filed";
  row "  %s\n" (String.make 70 '-');
  List.iter
    (fun n ->
      let net = Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 2) in
      let rt =
        Runtime.create
          ~config:(config_with (Recovery_policy.uniform Recovery_policy.Absolute))
          net [ partial_crasher n ]
      in
      Runtime.step rt;
      Runtime.dispatch_event rt (packet_in_event 1 2);
      let nl = Option.get (Runtime.netlog rt) in
      let detect =
        Legosdn.Detector.detection_delay Legosdn.Detector.default_timing
          (Legosdn.Detector.Fail_stop { detail = ""; partial = [] })
      in
      row "  %-10d| %-13d| %-14.1f| %-15b| %b\n" n
        (Legosdn.Netlog.ops_rolled_back nl)
        (detect *. 1000.)
        (Flow_table.size (Net.switch net 1).Sw.table = 0)
        (List.length (Runtime.tickets rt) = 1))
    [ 1; 4; 16; 64 ]

(* ------------------------------------------------------------------ *)

let netlog_exp () =
  section "E8" "NetLog invertibility: randomized rollback identity";
  let trials = 300 in
  let rng = Random.State.make [| 2014 |] in
  let mismatches = ref 0 in
  let ops_total = ref 0 in
  for _ = 1 to trials do
    let clock = Clock.create () in
    let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
    ignore (Net.poll net);
    let nl = Legosdn.Netlog.create net in
    let random_pattern () =
      Openflow.Ofp_match.make
        ?tp_dst:(if Random.State.bool rng then Some 80 else None)
        ?dl_dst:
          (if Random.State.bool rng then
             Some (Openflow.Types.mac_of_host (1 + Random.State.int rng 3))
           else None)
        ()
    in
    let random_fm () =
      let pattern = random_pattern () in
      let priority = 10 + (10 * Random.State.int rng 2) in
      match Random.State.int rng 3 with
      | 0 ->
          Openflow.Message.flow_add ~priority pattern
            [ Openflow.Action.Output (1 + Random.State.int rng 2) ]
      | 1 -> Openflow.Message.flow_delete ~priority pattern
      | _ ->
          {
            (Openflow.Message.flow_add ~priority pattern
               [ Openflow.Action.Output 1 ])
            with
            Openflow.Message.command = Openflow.Message.Modify;
          }
    in
    (* Committed pre-state. *)
    let pre = Legosdn.Netlog.begin_txn nl ~app:"pre" in
    for _ = 1 to 1 + Random.State.int rng 4 do
      ignore
        (Legosdn.Netlog.apply nl pre
           (Command.Flow (1 + Random.State.int rng 3, random_fm ())))
    done;
    Legosdn.Netlog.commit nl pre;
    let shape () =
      List.map
        (fun sid ->
          Flow_table.entries (Net.switch net sid).Sw.table
          |> List.map (fun (e : Flow_entry.t) ->
                 (e.pattern, e.priority, e.actions, e.idle_timeout, e.hard_timeout))
          |> List.sort compare)
        [ 1; 2; 3 ]
    in
    let before = shape () in
    let txn = Legosdn.Netlog.begin_txn nl ~app:"test" in
    let n_ops = 1 + Random.State.int rng 5 in
    for _ = 1 to n_ops do
      ignore
        (Legosdn.Netlog.apply nl txn
           (Command.Flow (1 + Random.State.int rng 3, random_fm ())))
    done;
    ops_total := !ops_total + n_ops;
    Legosdn.Netlog.abort nl txn;
    if shape () <> before then incr mismatches
  done;
  row "  transactions tested : %d (%d ops)\n" trials !ops_total;
  row "  rollback mismatches : %d (expected 0)\n" !mismatches

let ablation_buffer () =
  section "E9" "ablation: NetLog vs the prototype's delay buffer (§4.1)";
  let run (type e) name (module E : Legosdn.Txn_engine.S with type t = e)
      (create : Net.t -> e) =
    let net = Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 2) in
    ignore (Net.poll net);
    let engine = create net in
    (* A transaction that installs then reads. *)
    let txn = E.begin_txn engine ~app:"probe" in
    ignore
      (E.apply engine txn
         (Command.Flow
            (1, Openflow.Message.flow_add Openflow.Ofp_match.any [ Openflow.Action.Output 1 ])));
    let visible_mid_txn = Flow_table.size (Net.switch net 1).Sw.table = 1 in
    let replies =
      E.apply engine txn
        (Command.Stats (1, Openflow.Message.Flow_stats_request Openflow.Ofp_match.any))
    in
    let read_sees_own_write =
      match replies with
      | [ { Openflow.Message.payload =
              Openflow.Message.Stats_reply (Openflow.Message.Flow_stats_reply l);
            _ } ] ->
          l <> []
      | _ -> false
    in
    E.abort engine txn;
    let clean_after_abort = Flow_table.size (Net.switch net 1).Sw.table = 0 in
    (name, visible_mid_txn, read_sees_own_write, clean_after_abort)
  in
  let results =
    [
      run "netlog" (module Legosdn.Netlog) (fun net -> Legosdn.Netlog.create net);
      run "delay-buffer" (module Legosdn.Delay_buffer) Legosdn.Delay_buffer.create;
    ]
  in
  row "  %-14s| %-22s| %-22s| %s\n" "engine" "rules live mid-txn"
    "reads see own writes" "clean after abort";
  row "  %s\n" (String.make 80 '-');
  List.iter
    (fun (name, live, rw, clean) ->
      row "  %-14s| %-22b| %-22b| %b\n" name live rw clean)
    results;
  row "\n  (Wall-clock costs for both engines: bench/main.exe, cluster E8-E9.)\n"

(* ------------------------------------------------------------------ *)

let bugstats () =
  section "E10" "FlowScale bug-tracker shape (synthetic corpus, §2.1)";
  let entries = Workload.Bug_corpus.flowscale_like in
  List.iter
    (fun (sev, n) ->
      row "  %-14s: %2d / %d (%.0f%%)\n"
        (Workload.Bug_corpus.severity_name sev)
        n (List.length entries)
        (100. *. float n /. float (List.length entries)))
    (Workload.Bug_corpus.stats entries);
  row "  paper reports 16%% catastrophic; corpus reproduces %.0f%%\n"
    (100. *. Workload.Bug_corpus.catastrophic_fraction entries);
  row "  executable catastrophic bug models: %d\n"
    (List.length (Workload.Bug_corpus.executable_bugs entries))

(* ------------------------------------------------------------------ *)

let nversion_exp () =
  section "E11" "software diversity: majority voting masks a byzantine version";
  (* Every version answers to the panel's name, "router". *)
  let healthy = App_sig.app (module Apps.Router) in
  let byzantine_router =
    Apps.Faulty.wrap
      ~bug:
        (Apps.Bug_model.make
           (Apps.Bug_model.On_kind Event.K_packet_in)
           Apps.Bug_model.Byzantine_blackhole)
      (App_sig.app (Apps.Router.variant "router"))
  in
  let run label ?nversion ?nv_variants apps =
    let clock = Clock.create () in
    let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
    let absolute = config_with (Recovery_policy.uniform Recovery_policy.Absolute) in
    let rt = Runtime.create ~config:{ absolute with nversion } ?nv_variants net apps in
    Runtime.step rt;
    for i = 1 to 12 do
      Clock.advance_by clock 0.05;
      Net.inject net (1 + (i mod 3))
        (Openflow.Packet.tcp ~src_host:(1 + (i mod 3))
           ~dst_host:(1 + ((i + 1) mod 3))
           ());
      Runtime.step rt
    done;
    let m = Runtime.metrics rt in
    row "  %-28s| byzantine blocked: %2d | outvoted: %2d | connectivity: %3.0f%%\n"
      label
      Metrics.(get m byzantine)
      Metrics.(get m nv_outvoted)
      (100.
      *. Invariants.Checker.connectivity (Invariants.Snapshot.of_net net))
  in
  run "byzantine router alone" [ byzantine_router ];
  (* The same version seated between two healthy, independently built
     ones, each in its own sandbox; adaptation off, so every event is
     voted. *)
  run "3-version voted panel"
    ~nversion:{ Legosdn.Voter.default_config with nv_adaptive = false }
    ~nv_variants:(fun _ ->
      Some
        [
          (healthy, true);
          (byzantine_router, false);
          (App_sig.app (Apps.Router.variant ~prefer_high_ports:true "router"), true);
        ])
    [ healthy ];
  row "\n  Reading: alone, every poisoned output must be caught by the\n";
  row "  invariant checker; in the panel the two healthy versions\n";
  row "  out-vote it and nothing bad even reaches the checker.\n"

(* ------------------------------------------------------------------ *)

let clone_exp () =
  section "E12" "clone switch-over vs non-deterministic crashes (§5)";
  let bug p =
    Apps.Bug_model.make (Apps.Bug_model.With_probability (p, 99)) Apps.Bug_model.Crash
  in
  let count_crashes (module A : App_sig.INTENT_APP) events =
    let crashes = ref 0 in
    let st = ref (A.init ()) in
    for i = 1 to events do
      match
        A.handle App_sig.null_context !st (packet_in_event (1 + (i mod 3)) 2)
      with
      | st', _ -> st := st'
      | exception _ -> incr crashes
    done;
    !crashes
  in
  row "  %-8s| %-18s| %s\n" "p" "crashes (plain)" "crashes (with clone)";
  row "  %s\n" (String.make 55 '-');
  List.iter
    (fun p ->
      let plain =
        count_crashes (Apps.Faulty.wrap ~bug:(bug p) (App_sig.app (module Apps.Hub))) 200
      in
      let module Cloned =
        Legosdn.Clone_runner.Make
          ((val Apps.Faulty.wrap ~bug:(bug p) (App_sig.app (module Apps.Hub))))
      in
      let masked = count_crashes (App_sig.app (module Cloned)) 200 in
      row "  %-8.2f| %-18d| %d\n" p plain masked)
    [ 0.1; 0.3; 0.5 ]

(* ------------------------------------------------------------------ *)

let sts_exp () =
  section "E13" "STS-style minimal causal sequences (§5)";
  let ctx = App_sig.null_context in
  let module Cumulative = struct
    type state = { saw80 : bool; saw443 : bool }

    let name = "cumulative"
    let subscriptions = [ Event.K_packet_in ]
    let init () = { saw80 = false; saw443 = false }

    let handle _ st = function
      | Event.Packet_in (_, pi) ->
          let st =
            match pi.Openflow.Message.pi_packet.Openflow.Packet.tp_dst with
            | 80 -> { st with saw80 = true }
            | 443 -> { st with saw443 = true }
            | _ -> st
          in
          if st.saw80 && st.saw443 then failwith "cumulative";
          (st, [])
      | _ -> (st, [])
  end in
  let noise = [ 22; 53; 8080; 80; 25; 123; 443; 179; 110 ] in
  let trace = List.map (fun dport -> packet_in_event ~dport 1 2) noise in
  let minimal, calls = Legosdn.Sts.minimize (module Cumulative) ctx trace in
  row "  trace length        : %d events\n" (List.length trace);
  row "  minimal sequence    : %d events\n" (List.length minimal);
  row "  oracle invocations  : %d\n" calls;
  List.iter
    (fun k ->
      row "  with k=%-2d checkpoints, roll back to event index %d\n" k
        (Legosdn.Sts.checkpoint_to_roll_back_to ~trace ~minimal
           ~checkpoint_every:k))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)

let upgrade_exp () =
  section "E14" "controller upgrade: state survival (§3.4)";
  let learn net step =
    List.iter
      (fun (src, dst) ->
        Clock.advance_by (Net.clock net) 0.1;
        Net.inject net src (Openflow.Packet.tcp ~src_host:src ~dst_host:dst ());
        step ())
      [ (1, 2); (2, 1); (1, 2) ]
  in
  (* LegoSDN upgrade. *)
  let net = Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 2) in
  let rt = Runtime.create net [ (App_sig.app (module Apps.Learning_switch)) ] in
  Runtime.step rt;
  learn net (fun () -> Runtime.step rt);
  let box = Option.get (Runtime.sandbox rt "learning_switch") in
  let before = Sandbox.state_size box in
  Runtime.upgrade_controller rt;
  let lego_preserved = Sandbox.state_size box = before in
  (* Monolithic restart. *)
  let net2 = Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 2) in
  let mono = Monolithic.create net2 [ (App_sig.app (module Apps.Learning_switch)) ] in
  Monolithic.step mono;
  learn net2 (fun () -> Monolithic.step mono);
  let state_of m = App_sig.snapshot (List.hd (Monolithic.apps m)) in
  let learned = state_of mono in
  Monolithic.restart mono;
  let mono_preserved = state_of mono = learned in
  row "  %-24s| %s\n" "architecture" "app state survives upgrade?";
  row "  %s\n" (String.make 55 '-');
  row "  %-24s| %b\n" "monolithic restart" mono_preserved;
  row "  %-24s| %b\n" "legosdn upgrade" lego_preserved;
  row "\n  (The paper cites state-recreation outages of up to 10 s after\n";
  row "  monolithic controller upgrades.)\n"

(* ------------------------------------------------------------------ *)

let limits_exp () =
  section "E15" "per-app resource limits contain a leaking app (§3.4)";
  let run limit =
    let bug =
      Apps.Bug_model.make (Apps.Bug_model.On_kind Event.K_packet_in)
        (Apps.Bug_model.Leak 20_000)
    in
    let config =
      {
        Runtime.default_config with
        Runtime.crashpad =
          {
            Crashpad.default_config with
            Crashpad.limits =
              {
                Legosdn.Resources.max_state_bytes = limit;
                max_commands_per_event = None;
              };
          };
      }
    in
    let net = Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 2) in
    let rt =
      Runtime.create ~config net
        [ Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Learning_switch)) ]
    in
    Runtime.step rt;
    for i = 1 to 20 do
      Runtime.dispatch_event rt (packet_in_event (1 + (i mod 2)) 2)
    done;
    let box = Option.get (Runtime.sandbox rt "learning_switch") in
    ( Sandbox.state_size box,
      Metrics.(get (Runtime.metrics rt) resource_breaches) )
  in
  let unlimited_size, _ = run None in
  let limited_size, breaches = run (Some 100_000) in
  row "  %-28s| %-16s| %s\n" "configuration" "state bytes" "breaches";
  row "  %s\n" (String.make 60 '-');
  row "  %-28s| %-16d| %s\n" "no limit (rogue app grows)" unlimited_size "-";
  row "  %-28s| %-16d| %d\n" "100 kB limit enforced" limited_size breaches

(* ------------------------------------------------------------------ *)

let latency_exp () =
  section "E4" "isolation overhead: serialized bytes per event (virtual view)";
  let net = Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 3) in
  let rt = Runtime.create net [ (App_sig.app (module Apps.Learning_switch)) ] in
  Runtime.step rt;
  let box = Option.get (Runtime.sandbox rt "learning_switch") in
  let before = ref (Sandbox.rpc_bytes box) in
  row "  %-34s| %s\n" "event" "RPC bytes (event + commands)";
  row "  %s\n" (String.make 65 '-');
  List.iter
    (fun (label, ev) ->
      Runtime.dispatch_event rt ev;
      let now = Sandbox.rpc_bytes box in
      row "  %-34s| %d\n" label (now - !before);
      before := now)
    [
      ("packet_in (miss, flood)", packet_in_event 1 2);
      ("packet_in (hit, install+out)", packet_in_event ~sid:1 ~in_port:1 2 1);
      ("switch_down", Event.Switch_down 3);
    ];
  row "\n  (Wall-clock latency comparison: bench/main.exe, cluster E4.)\n"

(* ------------------------------------------------------------------ *)

let quarantine_exp () =
  section "E16" "event quarantine: multi-transaction failures (§5)";
  let run_with quarantine =
    let config =
      {
        Runtime.default_config with
        Runtime.crashpad =
          {
            Crashpad.default_config with
            Crashpad.policy = Recovery_policy.uniform Recovery_policy.Absolute;
            Crashpad.quarantine;
          };
      }
    in
    let bug =
      Apps.Bug_model.make (Apps.Bug_model.On_tp_dst 6666) Apps.Bug_model.Crash
    in
    let net = Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 2) in
    let rt =
      Runtime.create ~config net
        [ Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Learning_switch)) ]
    in
    Runtime.step rt;
    let poisoned = packet_in_event ~dport:6666 1 2 in
    for _ = 1 to 10 do
      Runtime.dispatch_event rt poisoned
    done;
    Runtime.metrics rt
  in
  let without = run_with None in
  let with_q = run_with (Some (Legosdn.Quarantine.create ~threshold:2 ())) in
  row "  %-26s| %-22s| %s\n" "configuration" "crash/recover cycles"
    "deliveries suppressed";
  row "  %s\n" (String.make 70 '-');
  row "  %-26s| %-22d| %d\n" "no quarantine" Metrics.(get without crashes)
    Metrics.(get without suppressed);
  row "  %-26s| %-22d| %d\n" "quarantine (threshold 2)"
    Metrics.(get with_q crashes)
    Metrics.(get with_q suppressed);
  row "\n  Ten deliveries of the same poisoned event: without quarantine\n";
  row "  every one costs a full crash+rollback+restore cycle; with it the\n";
  row "  signature is blacklisted after two failures.\n"

let atomic_exp () =
  section "E17" "atomic network updates (§3.4, after Katta et al.)";
  let net = Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 3) in
  ignore (Net.poll net);
  let netlog = Legosdn.Netlog.create net in
  let checker = Invariants.Incremental.create net in
  let mac h = Openflow.Types.mac_of_host h in
  let good =
    [
      (1, Openflow.Message.flow_add (Openflow.Ofp_match.make ~dl_dst:(mac 2) ())
            [ Openflow.Action.Output 1 ]);
      (2, Openflow.Message.flow_add (Openflow.Ofp_match.make ~dl_dst:(mac 2) ())
            [ Openflow.Action.Output 100 ]);
    ]
  in
  let bad =
    good
    @ [
        (3, Openflow.Message.flow_add (Openflow.Ofp_match.make ~dl_dst:(mac 1) ())
              [ Openflow.Action.Output 77 ]);
      ]
  in
  let count_rules () =
    List.fold_left
      (fun acc sid -> acc + Flow_table.size (Net.switch net sid).Sw.table)
      0 [ 1; 2; 3 ]
  in
  let o1 = Legosdn.Atomic_update.apply ~checker ~netlog ~app:"operator" bad in
  row "  3-rule update incl. black-holing rule : %s (rules installed: %d)\n"
    (Legosdn.Atomic_update.describe o1) (count_rules ());
  let o2 = Legosdn.Atomic_update.apply ~checker ~netlog ~app:"operator" good in
  row "  2-rule clean path update              : %s (rules installed: %d)\n"
    (Legosdn.Atomic_update.describe o2) (count_rules ())

let failover_exp () =
  section "E18" "controller fail-over in a 3-replica cluster (§5 future work)";
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
  let config =
    {
      Runtime.default_config with
      Runtime.cluster =
        { Runtime.replicas = 3; election_lo = 0.15; election_hi = 0.3 };
    }
  in
  let c =
    Cluster.create ~config ~seed:7 net
      [ (App_sig.app (module Apps.Learning_switch)) ]
  in
  let tick () =
    Clock.advance_by clock 0.5;
    Net.tick net;
    Cluster.tick c
  in
  let drive ?(sport = 1024) pairs =
    List.iter
      (fun (src, dst) ->
        Net.inject net src
          (Openflow.Packet.tcp ~src_host:src ~dst_host:dst ~sport ());
        tick ())
      pairs
  in
  let learning_switch () =
    Option.get
      (Runtime.sandbox (Option.get (Cluster.active_runtime c)) "learning_switch")
  in
  drive [ (1, 2); (2, 1); (1, 3); (3, 1); (2, 3); (3, 2) ];
  tick ();
  let before = Sandbox.snapshot_bytes (learning_switch ()) in
  (* A fresh flow between learned hosts: its install is the first
     state-altering send after the kill is armed, so the leader dies with
     that transaction half on the wire. *)
  Cluster.arm_kill c;
  drive ~sport:2048 [ (1, 3); (3, 1); (1, 3) ];
  tick ();
  let after = Sandbox.snapshot_bytes (learning_switch ()) in
  row "  leader killed mid-transaction; %d fail-over(s), successor elected\n"
    (Cluster.failovers c);
  row "  learning-switch state: %dB before, %dB after fail-over\n"
    (Bytes.length before) (Bytes.length after);
  row "  state byte-identical: %b (the successor restores the last state\n"
    (Bytes.equal before after);
  row "  transfer and re-dispatches the committed log suffix)\n"

let storm_exp () =
  section "E19" "broadcast storms: NO_FLOOD pruning vs controller shedding";
  let run with_stp =
    let clock = Clock.create () in
    let net = Net.create clock (Topo_gen.ring ~hosts_per_switch:1 4) in
    let apps : App_sig.app list =
      if with_stp then [ (App_sig.app (module Apps.Spanning_tree)); (App_sig.app (module Apps.Hub)) ]
      else [ (App_sig.app (module Apps.Hub)) ]
    in
    let rt = Runtime.create net apps in
    Runtime.step rt;
    for i = 1 to 4 do
      Clock.advance_by clock 0.1;
      Net.inject net i (Openflow.Packet.tcp ~src_host:i ~dst_host:(1 + (i mod 4)) ());
      Runtime.step rt
    done;
    (Runtime.events_processed rt, Runtime.events_shed rt,
     (Net.stats net).Net.delivered)
  in
  let p1, s1, d1 = run false in
  let p2, s2, d2 = run true in
  row "  %-26s| %-10s| %-10s| %s
" "configuration" "events" "shed" "delivered";
  row "  %s
" (String.make 60 '-');
  row "  %-26s| %-10d| %-10d| %d
" "hub alone on a ring" p1 s1 d1;
  row "  %-26s| %-10d| %-10d| %d
" "hub + spanning_tree" p2 s2 d2;
  row "
  The flooding hub on a cyclic topology multiplies packet-ins until
";
  row "  the controller sheds load; the spanning-tree app prunes the loop
";
  row "  with OFPPC_NO_FLOOD port-mods and the storm never forms.
"

let channel_exp () =
  section "E20" "lossy southbound: reliable delivery and switch resync";
  let module Reliable = Legosdn.Reliable in
  let module Netlog = Legosdn.Netlog in
  let switches = [ 1; 2; 3 ] in
  let n_txns = 30 in
  (* Permanent rules (no timeouts) so divergence measures delivery, not
     expiry; one unique pattern per transaction and switch. *)
  let pattern_of k = Openflow.Ofp_match.make ~tp_src:(1000 + k) () in
  let run ~loss ~enabled =
    let clock = Clock.create () in
    let net =
      Net.create ~channel:(Channel.lossy loss) ~channel_seed:42 clock
        (Topo_gen.linear ~hosts_per_switch:1 3)
    in
    ignore (Net.poll net);
    let rel =
      Reliable.create
        ~config:{ Reliable.default_config with Reliable.enabled }
        net
    in
    let nl = Netlog.create ~transport:(Reliable.send rel) net in
    for k = 1 to n_txns do
      let txn = Netlog.begin_txn nl ~app:"operator" in
      List.iter
        (fun sid ->
          ignore
            (Netlog.apply nl txn
               (Command.Flow
                  ( sid,
                    Openflow.Message.flow_add ~priority:50 (pattern_of k)
                      [ Openflow.Action.Output 1 ] ))))
        switches;
      if k mod 2 = 0 then Netlog.commit nl txn else Netlog.abort nl txn;
      Clock.advance_by clock 0.05;
      Reliable.tick rel
    done;
    (* Drain: let retransmission and backoff run to completion. *)
    let budget = ref 2000 in
    while Reliable.pending_count rel > 0 && !budget > 0 do
      decr budget;
      Clock.advance_by clock 0.05;
      Reliable.tick rel;
      List.iter (Reliable.observe rel) (Net.poll net)
    done;
    (* A transaction is in a half state when the data plane holds some but
       not all of what its outcome implies: a committed txn missing rules,
       or an aborted txn leaving any behind. *)
    let installed_on k =
      List.length
        (List.filter
           (fun sid ->
             Flow_table.find_exact (Net.switch net sid).Sw.table (pattern_of k)
               ~priority:50
             <> None)
           switches)
    in
    let half_state = ref 0 in
    for k = 1 to n_txns do
      let n = installed_on k in
      let committed = k mod 2 = 0 in
      if (committed && n < List.length switches) || ((not committed) && n > 0)
      then incr half_state
    done;
    ( !half_state,
      Reliable.divergence rel,
      Reliable.retransmits rel,
      Reliable.acks rel,
      Net.dups_suppressed net,
      (Net.channel_totals net).Channel.lost )
  in
  row "  %-8s| %-9s| %-16s| %-11s| %-12s| %-6s| %-6s| %s\n" "loss" "reliable"
    "half-state txns" "divergence" "retransmits" "acks" "dups" "lost";
  row "  %s\n" (String.make 85 '-');
  List.iter
    (fun loss ->
      List.iter
        (fun enabled ->
          let half, div, ret, acks, dups, lost = run ~loss ~enabled in
          row "  %-8.2f| %-9b| %-16d| %-11d| %-12d| %-6d| %-6d| %d\n" loss
            enabled half div ret acks dups lost)
        [ false; true ])
    [ 0.01; 0.05; 0.10; 0.20 ];
  row "\n  %d transactions of 3 rules each (half committed, half aborted)\n"
    n_txns;
  row "  over a seeded lossy channel. Without the reliability layer, lost\n";
  row "  flow-mods leave committed txns partially installed and lost undos\n";
  row "  leave aborted txns partially rolled back; with it, barrier-acked\n";
  row "  retransmission drives both half-state counts and divergence to 0.\n";
  (* Resynchronization: a mid-path switch reboots after traffic pinned
     flows; only shadow-table replay can repair the path without fresh
     packets. *)
  let reboot ~enabled =
    let clock = Clock.create () in
    let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
    let config =
      {
        Runtime.default_config with
        Runtime.reliable = { Legosdn.Reliable.default_config with enabled };
      }
    in
    let rt = Runtime.create ~config net [ (App_sig.app (module Apps.Learning_switch)) ] in
    Runtime.step rt;
    List.iter
      (fun (src, dst) ->
        Clock.advance_by clock 0.05;
        Net.inject net src (Openflow.Packet.tcp ~src_host:src ~dst_host:dst ());
        Runtime.step rt)
      [ (1, 3); (3, 1); (1, 3); (3, 1) ];
    Net.apply_fault net (Net.Switch_down 2);
    Runtime.step rt;
    Net.apply_fault net (Net.Switch_up 2);
    let reachable () =
      Invariants.Checker.reachable (Invariants.Snapshot.of_net net) 1 3
    in
    let blackholed = not (reachable ()) in
    Runtime.step rt;
    let m = Runtime.metrics rt in
    ( blackholed,
      reachable (),
      Metrics.(get m resyncs),
      Metrics.(get m resynced_rules) )
  in
  row "\n  mid-path switch reboot (hosts 1..3, switch 2 restarts empty):\n";
  row "  %-9s| %-18s| %-18s| %-8s| %s\n" "reliable" "blackhole on boot"
    "path after resync" "resyncs" "rules replayed";
  row "  %s\n" (String.make 70 '-');
  List.iter
    (fun enabled ->
      let blackholed, repaired, resyncs, rules = reboot ~enabled in
      row "  %-9b| %-18b| %-18b| %-8d| %d\n" enabled blackholed repaired
        resyncs rules)
    [ false; true ]

(* ------------------------------------------------------------------ *)

let availability_dist () =
  section "E7b" "availability distribution over randomized workloads";
  let duration = 20. in
  let run_arch seed kind =
    let apps () : App_sig.app list =
      [
        Apps.Faulty.wrap ~bug:poisoned_bug (App_sig.app (module Apps.Learning_switch));
        (App_sig.app (module Apps.Firewall));
      ]
    in
    let traffic =
      List.stable_sort
        (fun a b -> compare a.Traffic.at b.Traffic.at)
        (Traffic.schedule
           (Traffic.uniform_pairs ~seed ~hosts:[ 1; 2; 3 ] ~flows:40 ~duration ())
        @ List.init 6 (fun i ->
              {
                Traffic.at = 1.0 +. (3.0 *. float i);
                src = 1;
                packet =
                  Openflow.Packet.tcp ~src_host:1 ~dst_host:2 ~dport:6666 ();
              }))
    in
    let scenario =
      Scenario.make
        ~make_topology:(fun () -> Topo_gen.linear ~hosts_per_switch:1 3)
        ~duration ~traffic ~tick_interval:1. ~restart_delay:10. ()
    in
    match kind with
    | `Mono ->
        Scenario.run scenario ~make_driver:(fun net ->
            Scenario.monolithic_driver (Monolithic.create net (apps ())))
    | `Lego ->
        Scenario.run scenario ~make_driver:(fun net ->
            Scenario.legosdn_driver
              (Runtime.create
                 ~config:(config_with (Recovery_policy.uniform Recovery_policy.Absolute))
                 net (apps ())))
  in
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let collect kind field =
    List.map (fun seed -> field (run_arch seed kind)) seeds
  in
  let show label samples =
    match Workload.Stats.summarize samples with
    | Some s ->
        row "  %-34s %s\n" label
          (Format.asprintf "%a" Workload.Stats.pp_summary s)
    | None -> ()
  in
  show "monolithic ctrl availability"
    (collect `Mono (fun r -> r.Scenario.controller_availability));
  show "legosdn ctrl availability"
    (collect `Lego (fun r -> r.Scenario.controller_availability));
  show "monolithic mean connectivity"
    (collect `Mono (fun r -> r.Scenario.mean_connectivity));
  show "legosdn mean connectivity"
    (collect `Lego (fun r -> r.Scenario.mean_connectivity))

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig1", fig1);
    ("latency", latency_exp);
    ("ckpt-k", ckpt_k);
    ("recovery", recovery);
    ("availability", availability);
    ("availability-dist", availability_dist);
    ("netlog", netlog_exp);
    ("ablation-buffer", ablation_buffer);
    ("bugstats", bugstats);
    ("nversion", nversion_exp);
    ("clone", clone_exp);
    ("sts", sts_exp);
    ("upgrade", upgrade_exp);
    ("limits", limits_exp);
    ("quarantine", quarantine_exp);
    ("atomic", atomic_exp);
    ("failover", failover_exp);
    ("storm", storm_exp);
    ("channel", channel_exp);
  ]

open Cmdliner

let exp_arg =
  let doc =
    "Experiment(s) to run: 'all' or any of "
    ^ String.concat ", " (List.map fst experiments)
    ^ ". Repeatable."
  in
  Arg.(value & opt_all string [ "all" ] & info [ "exp"; "e" ] ~docv:"EXP" ~doc)

let run selected =
  let to_run =
    if List.mem "all" selected then experiments
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> Some (name, f)
          | None ->
              Printf.eprintf "unknown experiment %S (try --help)\n" name;
              exit 2)
        selected
  in
  List.iter (fun (_, f) -> f ()) to_run

let cmd =
  let doc = "Regenerate the LegoSDN paper's tables, figures and claims" in
  Cmd.v (Cmd.info "experiments" ~doc) Term.(const run $ exp_arg)

let () = exit (Cmd.eval cmd)
