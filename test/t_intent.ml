(* Intent reconciliation and policy-derived Equivalence compromises:
   the runtime keeps hardware synchronized with each app's declared
   policy, refuses intents whose compiled tables would violate safety
   invariants, and — when an app crashes — Crash-Pad recompiles the
   declared intent into a verified rule-set instead of guessing. *)

open Netsim
module App_sig = Controller.App_sig
module Event = Controller.Event
module Message = Openflow.Message
module Types = Openflow.Types
module Runtime = Legosdn.Runtime
module Sandbox = Legosdn.Sandbox
module Crashpad = Legosdn.Crashpad
module Voter = Legosdn.Voter
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
  (match Runtime.voters rt with
  | [ v ] ->
      T_util.checkb "unit tracks installed intent" true
        (Crashpad.intent_tables (Voter.intent_record v) <> [])
  | _ -> Alcotest.fail "expected exactly one unit");
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
  match Runtime.voters rt with
  | [ v ] ->
      T_util.checkb "no intent recorded as installed" true
        (Crashpad.intent_tables (Voter.intent_record v) = [])
  | _ -> Alcotest.fail "expected exactly one unit"

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
    (T_util.reachable net 1 2)

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

(* ---------------- reconciliation tracks the network ---------------- *)

(* The app, subscribed to every event kind: every delivered event, ticks
   included, reconciles its intent. *)
module Every_event (A : App_sig.INTENT_APP) : App_sig.INTENT_APP = struct
  include A

  let subscriptions = Event.all_kinds
end

type op =
  | Packet of int * int  (** host, destination host *)
  | Link_flap of int  (** toggle the i-th inter-switch link *)
  | Switch_toggle of Types.switch_id
  | Reboot of Types.switch_id  (** down and back up before the next step *)

(* Ops on [Topo_gen.linear 4]: its three inter-switch links, its four
   switches, packets among its first [hosts] hosts. *)
let gen_op ~hosts =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map2
            (fun h d -> Packet (h, d))
            (int_range 1 hosts) (int_range 1 hosts) );
        (2, map (fun i -> Link_flap i) (int_bound 2));
        (2, map (fun s -> Switch_toggle s) (int_range 1 4));
        (2, map (fun s -> Reboot s) (int_range 1 4));
      ])

let print_op = function
  | Packet (h, d) -> Printf.sprintf "packet %d->%d" h d
  | Link_flap i -> Printf.sprintf "flap link %d" i
  | Switch_toggle s -> Printf.sprintf "toggle s%d" s
  | Reboot s -> Printf.sprintf "reboot s%d" s

let apply_op net = function
  | Packet (h, d) ->
      Net.inject net h (Openflow.Packet.tcp ~src_host:h ~dst_host:d ())
  | Link_flap i ->
      let l =
        List.nth
          (Workload.Failure_schedule.inter_switch_links (Net.topology net))
          i
      in
      let a = l.Topology.a.Topology.node and b = l.Topology.b.Topology.node in
      Net.apply_fault net
        (if l.Topology.up then Net.Link_down (a, b) else Net.Link_up (a, b))
  | Switch_toggle s ->
      Net.apply_fault net
        (if (Net.switch net s).Sw.up then Net.Switch_down s
         else Net.Switch_up s)
  | Reboot s ->
      Net.apply_fault net (Net.Switch_down s);
      Net.apply_fault net (Net.Switch_up s)

(* Compiled intent on a switch, as sorted (priority, pattern, actions). *)
let installed_rows net sid =
  Flow_table.entries (Net.switch net sid).Sw.table
  |> List.filter (fun (e : Flow_entry.t) ->
         e.Flow_entry.priority > Message.default_priority)
  |> List.map (fun (e : Flow_entry.t) ->
         (e.Flow_entry.priority, e.pattern, e.actions))
  |> List.sort compare

let compiled_rows tables sid =
  match List.find_opt (fun t -> t.Policy.t_sw = sid) tables with
  | None -> []
  | Some t ->
      List.map
        (fun r -> (r.Policy.r_priority, r.Policy.r_pattern, r.Policy.r_actions))
        t.Policy.t_rows
      |> List.sort compare

let reliable_off =
  {
    Runtime.default_config with
    reliable = { Legosdn.Reliable.default_config with enabled = false };
  }

(* With the reliable layer off, re-deriving intent is the only thing that
   puts a rebooted switch's rules back. After each op and a step, tick,
   step, every up switch must hold exactly a fresh compile of what the
   app declares now (its primary variant, in a panel) — whatever
   reconciliation skipped along the way. A step that rejected an install
   (a flood intent that would black-hole on a partitioned chain) rightly
   leaves the old rules, so it is not checked. *)
let holds_fresh_compile ~topo ~config app ops =
  let clock = Clock.create () in
  let net = Net.create clock topo in
  let rt = Runtime.create ~config net [ app ] in
  Runtime.step rt;
  let box = List.hd (Runtime.sandboxes rt) in
  let m = Runtime.metrics rt in
  List.for_all
    (fun op ->
      Clock.advance_by clock 0.05;
      apply_op net op;
      let rejected = Metrics.(get m policy_rejected) in
      Runtime.step rt;
      Runtime.tick rt;
      Runtime.step rt;
      Metrics.(get m policy_rejected) > rejected
      ||
      let ctx = Controller.Services.context (Runtime.services rt) in
      let tables =
        match Sandbox.declared_policy box ctx with
        | None -> []
        | Some pol -> Policy.compile ~switches:(App_sig.switches ctx) pol
      in
      List.for_all
        (fun sid ->
          (not (Net.switch net sid).Sw.up)
          || installed_rows net sid = compiled_rows tables sid
          || QCheck.Test.fail_reportf
               "%s: after %s, s%d holds %d intent rows, a fresh compile has %d"
               (Sandbox.name box) (print_op op) sid
               (List.length (installed_rows net sid))
               (List.length (compiled_rows tables sid)))
        (Topology.switches (Net.topology net)))
    ops

let test_fresh_compile =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"network holds a fresh compile of declared intent"
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map print_op ops))
          (QCheck.Gen.list_repeat 40 (gen_op ~hosts:4)))
       (fun ops ->
         List.for_all
           (fun app ->
             holds_fresh_compile
               ~topo:(Topo_gen.linear ~hosts_per_switch:1 4)
               ~config:reliable_off app ops)
           [
             App_sig.intent (module Every_event (Apps.Policy_router));
             App_sig.intent (module Every_event (Apps.Policy_firewall));
           ]))

(* A panel drives one network, so whichever variant wins an election must
   diff its intent against what the network holds, not against a record
   of its own that went stale while another variant won. Crashing
   variants make winners change often: every crash is masked, re-synced
   or, when all three die, compromised from declared intent. *)
let test_panel_fresh_compile =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30
       ~name:"panel network holds a fresh compile of declared intent"
       (QCheck.make
          ~print:(fun (seed, ops) ->
            Printf.sprintf "seed %d: %s" seed
              (String.concat "; " (List.map print_op ops)))
          QCheck.Gen.(pair (int_bound 10_000) (list_repeat 60 (gen_op ~hosts:12))))
       (fun (seed, ops) ->
         let bug =
           Apps.Bug_model.make
             (Apps.Bug_model.With_probability (0.3, seed))
             Apps.Bug_model.Crash
         in
         holds_fresh_compile
           ~topo:(Topo_gen.linear ~hosts_per_switch:3 4)
           ~config:{ reliable_off with nversion = Some Voter.default_config }
           (Apps.Faulty.wrap ~bug
              (App_sig.intent (module Every_event (Apps.Policy_router))))
           ops))

(* ---------------- routes ---------------- *)

(* The reference for [Policy_router]'s routes: a fresh BFS per (switch,
   destination) pair, where the router reads the controller's first hops
   ([Services.first_hops], one BFS per source switch, kept). *)
let per_pair_first_hop links src dst =
  let adjacency = Hashtbl.create 16 in
  List.iter
    (fun (l : Event.link) ->
      let existing =
        Option.value (Hashtbl.find_opt adjacency l.Event.src_switch) ~default:[]
      in
      Hashtbl.replace adjacency l.Event.src_switch
        ((l.Event.src_port, l.Event.dst_switch) :: existing))
    links;
  let neighbors sid =
    Option.value (Hashtbl.find_opt adjacency sid) ~default:[]
    |> List.sort compare
  in
  let visited = Hashtbl.create 16 in
  Hashtbl.replace visited src ();
  let queue = Queue.create () in
  List.iter
    (fun (port, next) ->
      if not (Hashtbl.mem visited next) then begin
        Hashtbl.replace visited next ();
        Queue.push (next, port) queue
      end)
    (neighbors src);
  let result = ref None in
  while !result = None && not (Queue.is_empty queue) do
    let sid, port = Queue.pop queue in
    if sid = dst then result := Some port
    else
      List.iter
        (fun (_, next) ->
          if not (Hashtbl.mem visited next) then begin
            Hashtbl.replace visited next ();
            Queue.push (next, port) queue
          end)
        (neighbors sid)
  done;
  !result

let per_pair_policy ctx macs =
  let links = App_sig.links ctx in
  let switches = App_sig.switches ctx in
  Policy.union_all
    (List.filter_map
       (fun mac ->
         match App_sig.host_location ctx mac with
         | None -> None
         | Some (dst_sid, dst_port) -> (
             let per_switch =
               List.filter_map
                 (fun sw ->
                   let out =
                     if sw = dst_sid then Some dst_port
                     else per_pair_first_hop links sw dst_sid
                   in
                   Option.map
                     (fun port ->
                       Policy.at sw
                         (Policy.seq
                            (Policy.filter (Policy.Test (Policy.Dl_dst mac)))
                            (Policy.forward port)))
                     out)
                 switches
             in
             match per_switch with
             | [] -> None
             | l -> Some (Policy.union_all l)))
       macs)

(* Switches 1..n; links drawn over 1..n with no symmetry, so one-way
   links, self-loops, parallel links and disconnected parts all occur;
   hosts attached anywhere in 1..n+1 (n+1 is not connected), some never
   located at all. *)
let gen_routing =
  QCheck.Gen.(
    let* n = int_range 1 7 in
    let sw = int_range 1 n in
    let link =
      let* src_switch = sw and* dst_switch = sw and* src_port = int_range 1 4 in
      return { Event.src_switch; src_port; dst_switch; dst_port = 1 }
    in
    let* links = list_size (int_bound 14) link in
    let* hosts =
      list_size (int_range 1 6)
        (pair (int_range 1 8)
           (opt (pair (int_range 1 (n + 1)) (int_range 100 102))))
    in
    return (n, links, hosts))

let print_routing (n, links, hosts) =
  Printf.sprintf "%d switches; links %s; hosts %s" n
    (String.concat " "
       (List.map
          (fun (l : Event.link) ->
            Printf.sprintf "%d:%d->%d" l.Event.src_switch l.Event.src_port
              l.Event.dst_switch)
          links))
    (String.concat " "
       (List.map
          (fun (h, loc) ->
            match loc with
            | None -> Printf.sprintf "h%d@?" h
            | Some (s, p) -> Printf.sprintf "h%d@%d:%d" h s p)
          hosts))

let one_bfs_prop (n, links, hosts) =
  let mac = Types.mac_of_host in
  let locations = List.map (fun (h, loc) -> (mac h, loc)) hosts in
  let ctx =
    {
      App_sig.null_context with
      switches = (fun () -> List.init n (fun i -> i + 1));
      links = (fun () -> links);
      first_hop = Controller.Services.first_hops links;
      host_location =
        (fun m -> Option.join (List.assoc_opt m locations));
    }
  in
  (* The router learns a destination from the source of a punted packet. *)
  let st =
    List.fold_left
      (fun st (h, _) ->
        fst
          (Apps.Policy_router.handle ctx st
             (Event.Packet_in
                ( 1,
                  {
                    Message.pi_buffer_id = None;
                    pi_in_port = 1;
                    pi_reason = Message.No_match;
                    pi_packet = T_util.tcp_packet h 1;
                  } ))))
      (Apps.Policy_router.init ()) hosts
  in
  let macs = List.sort_uniq compare (List.map (fun (h, _) -> mac h) hosts) in
  Apps.Policy_router.policy ctx st = Some (per_pair_policy ctx macs)

let test_one_bfs_routes =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"one-BFS routes == per-pair BFS routes"
       (QCheck.make ~print:print_routing gen_routing)
       one_bfs_prop)

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
    test_fresh_compile;
    test_panel_fresh_compile;
    test_one_bfs_routes;
  ]
