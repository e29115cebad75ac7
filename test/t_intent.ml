(* Intent reconciliation and policy-derived Equivalence compromises:
   the runtime keeps hardware synchronized with each app's declared
   policy, refuses intents whose compiled tables would violate safety
   invariants, and — when an app crashes — Crash-Pad recompiles the
   declared intent into a verified rule-set instead of guessing. *)

open Netsim
module App_sig = Controller.App_sig
module Event = Controller.Event
module Runtime = Legosdn.Runtime
module Sandbox = Legosdn.Sandbox
module Metrics = Legosdn.Metrics
module Spec = Check.Spec
module Runner = Check.Runner

let table_size net sid = Flow_table.size (Net.switch net sid).Sw.table

(* ---------------- reconciliation ---------------- *)

(* A healthy policy_firewall never emits a command, yet after its first
   delivery the switches are programmed from its compiled intent: telnet
   dies in hardware, everything else floods in hardware. *)
let test_reconcile_programs_switches () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 2) in
  let rt =
    Runtime.create net [ App_sig.intent (module Apps.Policy_firewall) ]
  in
  Runtime.step rt;
  let m = Runtime.metrics rt in
  T_util.checkb "intent reconciled at least once" true
    (Metrics.(get m policy_reconciles) >= 1);
  T_util.checkb "rules installed on switch 1" true (table_size net 1 > 0);
  T_util.checkb "rules installed on switch 2" true (table_size net 2 > 0);
  (match Runtime.sandboxes rt with
  | [ box ] ->
      T_util.checkb "sandbox tracks installed intent" true
        (Sandbox.intent_tables box <> [])
  | _ -> Alcotest.fail "expected exactly one sandbox");
  (* Telnet is dropped by the compiled tables... *)
  let delivered_before = (Net.stats net).Net.delivered in
  Clock.advance_by clock 0.05;
  Net.inject net 1 (Openflow.Packet.tcp ~src_host:1 ~dst_host:2 ~dport:23 ());
  Runtime.step rt;
  T_util.checki "telnet blocked in hardware" delivered_before
    (Net.stats net).Net.delivered;
  (* ...while web traffic floods through without ever punting. *)
  let events_before = Metrics.(get m events) in
  Clock.advance_by clock 0.05;
  Net.inject net 1 (Openflow.Packet.tcp ~src_host:1 ~dst_host:2 ~dport:80 ());
  Runtime.step rt;
  T_util.checkb "http delivered" true
    ((Net.stats net).Net.delivered > delivered_before);
  T_util.checki "no punt: table covered the packet" events_before
    Metrics.(get m events)

(* ---------------- rejection ---------------- *)

(* An intent that compiles to a forwarding loop: every switch blasts all
   traffic out its first inter-switch port. The compiler is happy, the
   differential check agrees — and the invariant engine refuses to let a
   single rule reach the network. *)
module Loopy = struct
  type state = int

  let name = "loopy"
  let subscriptions = [ Event.K_switch_up ]
  let init () = 0
  let handle _ctx st _ev = (st + 1, [])

  let policy ctx _st =
    match App_sig.links ctx with
    | [] -> None
    | links ->
        Some
          (Policy.union_all
             (List.map
                (fun (l : Event.link) ->
                  Policy.at l.Event.src_switch
                    (Policy.forward l.Event.src_port))
                links))
end

let test_looping_intent_rejected () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 2) in
  let rt = Runtime.create net [ App_sig.intent (module Loopy) ] in
  Runtime.step rt;
  let m = Runtime.metrics rt in
  T_util.checkb "looping intent rejected" true (Metrics.(get m policy_rejected) >= 1);
  T_util.checki "no reconcile recorded" 0 Metrics.(get m policy_reconciles);
  T_util.checki "switch 1 table untouched" 0 (table_size net 1);
  T_util.checki "switch 2 table untouched" 0 (table_size net 2);
  match Runtime.sandboxes rt with
  | [ box ] ->
      T_util.checkb "no intent recorded as installed" true
        (Sandbox.intent_tables box = [])
  | _ -> Alcotest.fail "expected exactly one sandbox"

(* ---------------- policy-derived compromise ---------------- *)

(* policy_router on a full mesh with a poison-packet bug. Hosts 1-3 get
   learned and routed; then a link dies *silently* (the app only watches
   packet-ins), and the very packet that punts to tell the app about the
   stale tables crashes it — deterministically, on every retry. Crash-Pad's
   Equivalence compromise recompiles the declared intent against the
   post-failure topology and installs the verified diff: traffic keeps
   flowing across a path the crashed app never computed. *)
let test_compromise_reroutes_after_crash () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.mesh ~hosts_per_switch:1 4) in
  let bug =
    Apps.Bug_model.make (Apps.Bug_model.On_tp_dst 7) Apps.Bug_model.Crash
  in
  let app =
    Apps.Faulty.wrap ~bug (App_sig.intent (module Apps.Policy_router))
  in
  let rt = Runtime.create net [ app ] in
  Runtime.step rt;
  (* Hosts 1-3 each send towards the never-speaking host 4: every packet
     punts, so their MACs get learned and routed. *)
  for h = 1 to 3 do
    Clock.advance_by clock 0.05;
    Net.inject net h (Openflow.Packet.tcp ~src_host:h ~dst_host:4 ());
    Runtime.step rt
  done;
  let m = Runtime.metrics rt in
  T_util.checkb "routes installed before the failure" true
    (Metrics.(get m policy_reconciles) >= 1);
  T_util.checki "no compromise yet" 0 Metrics.(get m policy_compromises);
  T_util.checki "no crash yet" 0 Metrics.(get m crashes);
  (* Cut the 1<->2 link. The app subscribes to no topology event, so the
     routes through it simply went stale. *)
  Net.apply_fault net (Net.Link_down (Topology.Switch 1, Topology.Switch 2));
  Runtime.step rt;
  (* The next punt carries the poison port: delivery crashes, retries
     crash, and the compromise recompiles the declared intent against the
     live links instead. *)
  Clock.advance_by clock 0.05;
  Net.inject net 1 (Openflow.Packet.tcp ~src_host:1 ~dst_host:4 ~dport:7 ());
  Runtime.step rt;
  T_util.checkb "crash absorbed" true (Metrics.(get m crashes) >= 1);
  T_util.checkb "compromise derived from compiled policy" true
    (Metrics.(get m policy_compromises) >= 1);
  List.iter
    (fun box -> T_util.checkb "app still alive" true (Sandbox.alive box))
    (Runtime.sandboxes rt);
  (* The recompiled routes steer around the dead link in hardware. *)
  Clock.advance_by clock 0.05;
  Net.inject net 1 (Openflow.Packet.tcp ~src_host:1 ~dst_host:2 ());
  Runtime.step rt;
  T_util.checkb "traffic rerouted around the dead link" true
    (Net.reachable net 1 2)

(* ---------------- end-to-end fuzzer scenario ---------------- *)

(* The same story through the fuzz harness: a hand-authored spec running
   policy_router with corpus bug #0 — "NullPointerException parsing
   packet-in with truncated payload", which crashes on any packet with
   tp_dst 0. Routes get learned, the middle switch of a linear topology
   reboots (silently, for a packet-in-only app), and then a dport-0
   packet punts: the delivery crashes on every retry, and Crash-Pad's
   only way out is recompiling the declared intent against the shrunken
   topology. The runner must finish with no oracle finding and at least
   one policy-derived compromise in its final state. *)
let test_fuzzer_scenario_derives_compromise () =
  let spec =
    {
      Spec.seed = 0;
      topo = Spec.Linear 3;
      apps = [ "policy_router" ];
      base_loss = 0.0;
      duplicate = 0.0;
      delay = 0.0;
      reliable = true;
      base_timeout = 0.05;
      max_retries = 6;
      checkpoint_every = 1;
      policy = Legosdn.Recovery_policy.Equivalence;
      duration = 8.0;
      replicas = 1;
      election_lo = 0.15;
      election_hi = 0.3;
      nversion = 1;
      elements =
        [
          (* Learn host 1 end-to-end before the failure. *)
          Spec.Flow { src = 0; dst = 2; start = 1.0; packets = 2; dport = 80 };
          Spec.Flow { src = 2; dst = 0; start = 1.5; packets = 2; dport = 80 };
          (* Reboot the middle switch; its routes are now stale. *)
          Spec.Switch_reboot { sw = 1; down_at = 4.0; downtime = 1.5 };
          (* A dport-0 punt while the switch is down crashes the app
             (corpus bug 0): the compromise withdraws the routes through
             the dead switch from declared intent. *)
          Spec.Flow { src = 0; dst = 2; start = 4.5; packets = 1; dport = 0 };
          Spec.Inject_bug { slot = 0; bug = 0 };
          (* Traffic after the switch returns re-drives reconciliation. *)
          Spec.Flow { src = 0; dst = 2; start = 6.5; packets = 2; dport = 80 };
        ];
    }
  in
  let r = Runner.run spec in
  (match r.Runner.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "unexpected oracle finding: %s: %s" f.Runner.oracle
        f.Runner.detail);
  T_util.checkb "run survived its oracles" true (r.Runner.failure = None);
  T_util.checkb "crash observed" true (r.Runner.final.Runner.f_crashes >= 1);
  T_util.checkb "fuzzer scenario derived a verified compromise" true
    (r.Runner.final.Runner.f_policy_compromises >= 1)

let suite =
  [
    Alcotest.test_case "reconcile programs switches" `Quick
      test_reconcile_programs_switches;
    Alcotest.test_case "looping intent rejected" `Quick
      test_looping_intent_rejected;
    Alcotest.test_case "compromise reroutes after crash" `Quick
      test_compromise_reroutes_after_crash;
    Alcotest.test_case "fuzzer scenario derives compromise" `Quick
      test_fuzzer_scenario_derives_compromise;
  ]
