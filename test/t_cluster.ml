module App_sig = Controller.App_sig
(* The replicated controller cluster: election convergence, commit-gated
   dispatch, transaction-preserving fail-over, and the core replication
   theorem — replaying a node's committed log through fresh sandboxes
   reproduces the leader's live state — checked across randomized peer
   fault schedules and election timings. *)

open Netsim
module Runtime = Legosdn.Runtime
module Sandbox = Legosdn.Sandbox
module Checkpoint = Legosdn.Checkpoint
module Raft = Cluster.Raft
module Services = Controller.Services
module Event = Controller.Event

let config ?(replicas = 3) ?(lo = 0.15) ?(hi = 0.3) () =
  {
    Runtime.default_config with
    Runtime.cluster = { Runtime.replicas; election_lo = lo; election_hi = hi };
  }

let apps : Controller.App_sig.app list = [ (App_sig.app (module Apps.Learning_switch)) ]

let fresh ?peer_channel ?(seed = 7) ?(replicas = 3) () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
  let c =
    Cluster.create ~config:(config ~replicas ()) ?peer_channel ~seed net apps
  in
  (clock, net, c)

(* Advance virtual time in driver-cadence steps, injecting one packet per
   step, exactly as the checker's runner drives a cluster. *)
let drive clock net c pairs =
  List.iter
    (fun (src, dst) ->
      Clock.advance_by clock 0.5;
      Net.tick net;
      Net.inject net src (T_util.tcp_packet src dst);
      Cluster.tick c)
    pairs

(* Quiesce like the checker's settle phase: a few driver ticks, then one
   bare step. A tick appends a fresh Tick entry, so followers trail the
   leader's commit by one heartbeat round; the final step appends nothing
   and its heartbeats propagate the last commit index. *)
let settle clock net c n =
  for _ = 1 to n do
    Clock.advance_by clock 0.5;
    Net.tick net;
    Cluster.tick c
  done;
  Clock.advance_by clock 0.5;
  Net.tick net;
  Cluster.step c

let test_election_converges () =
  let clock, net, c = fresh () in
  settle clock net c 4;
  T_util.checki "exactly one live leader" 1 (List.length (Cluster.alive_leaders c));
  T_util.checkb "at least one election ran" true (Cluster.elections c >= 1);
  T_util.checkb "terms and commits agree" true (Cluster.converged c)

let test_commit_gated_dispatch () =
  let clock, net, c = fresh () in
  drive clock net c [ (1, 2); (2, 1); (1, 3); (3, 1) ];
  settle clock net c 2;
  let commit = Cluster.commit_index c in
  T_util.checkb "traffic became committed entries" true (commit > 0);
  let leader = Option.get (Cluster.leader c) in
  T_util.checki "leader dispatched exactly the committed prefix" commit
    (Cluster.node_last_dispatched c leader);
  Array.iter
    (fun i -> T_util.checki "replica commit agrees" commit (Cluster.node_commit c i))
    (Array.init (Cluster.nodes c) (fun i -> i));
  T_util.checkb "replication moved messages" true (Cluster.replication_msgs c > 0);
  T_util.checkb "replication accounted bytes" true (Cluster.replication_bytes c > 0)

let test_kill_leader_fails_over () =
  let clock, net, c = fresh () in
  drive clock net c [ (1, 2); (2, 1) ];
  let old_leader = Option.get (Cluster.leader c) in
  Cluster.arm_kill c;
  drive clock net c [ (1, 3); (3, 1); (2, 3) ];
  settle clock net c 3;
  T_util.checki "the armed kill fired" 1 (Cluster.kills c);
  T_util.checki "a successor took over" 1 (Cluster.failovers c);
  T_util.checkb "the old leader is dead" true (not (Cluster.node_alive c old_leader));
  (match Cluster.leader c with
  | Some l -> T_util.checkb "a different node leads" true (l <> old_leader)
  | None -> Alcotest.fail "no live leader after fail-over");
  (match Cluster.failover_latencies c with
  | [ d ] -> T_util.checkb "fail-over latency recorded" true (d >= 0.)
  | l -> Alcotest.failf "one latency sample expected, got %d" (List.length l));
  (* The successor serves traffic: the committed log keeps growing. *)
  let before = Cluster.commit_index c in
  drive clock net c [ (3, 2) ];
  T_util.checkb "post-failover events commit" true (Cluster.commit_index c > before)

(* A successor restored from a state transfer holds its predecessor's
   intent: the shipped shadow tables, plus what it re-dispatched. Enough
   traffic precedes the kill for a ship to carry rules. *)
let test_successor_inherits_shadows () =
  let clock, net, c = fresh () in
  drive clock net c [ (1, 2); (2, 1); (1, 3); (3, 1); (2, 3); (3, 2) ];
  T_util.checkb "a ship preceded the kill" true (Cluster.transfers_shipped c > 0);
  Cluster.arm_kill c;
  drive clock net c [ (1, 2); (2, 3) ];
  settle clock net c 3;
  T_util.checki "a successor took over" 1 (Cluster.failovers c);
  match Option.bind (Cluster.leader_runtime c) Runtime.reliable with
  | Some rel ->
      T_util.checki "successor's shadow tables match the switches" 0
        (Legosdn.Reliable.divergence rel)
  | None -> Alcotest.fail "successor has no reliable layer"

(* With perfect peer channels and one leader, each log entry reaches each
   follower exactly once, so the replication bytes are every entry's
   wire size twice over plus a 16- or 32-byte header per message. *)
let test_replication_bytes_price_entries () =
  let clock, net, c = fresh () in
  drive clock net c [ (1, 2); (2, 1); (1, 3); (3, 1) ];
  settle clock net c 2;
  let log = Cluster.node_log c (Option.get (Cluster.leader c)) in
  let payload =
    List.fold_left
      (fun acc (e : Raft.entry) -> acc + Legosdn.Wire.event_size e.Raft.event)
      0 log
  in
  let headers = Cluster.replication_bytes c - (2 * payload) in
  let msgs = Cluster.replication_msgs c in
  T_util.checkb "entries replicated" true (List.length log > 4);
  T_util.checkb "16 or 32 header bytes per message" true
    (headers mod 16 = 0 && headers >= 16 * msgs && headers <= 32 * msgs)

let test_followers_keep_sandboxes_warm () =
  let clock, net, c = fresh () in
  (* Enough traffic to cross the state-transfer cadence. *)
  drive clock net c
    [ (1, 2); (2, 1); (1, 3); (3, 1); (2, 3); (3, 2); (1, 2); (2, 1) ];
  settle clock net c 2;
  T_util.checkb "state transfers shipped" true (Cluster.transfers_shipped c > 0);
  T_util.checkb "transfer bytes accounted" true (Cluster.transfer_bytes c > 0)

(* A ship of a state no event changed re-ships its manifest, accounted as
   a fresh ship of the same bytes. The twin runtime holds the same states
   as new instances restored from copies of its own bytes, so its second
   ship chunks them again; both must ship the same bytes and the same
   state. *)
let test_unchanged_ship_keeps_manifest () =
  let world () =
    let clock = Clock.create () in
    let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
    let rt = Runtime.create net apps in
    List.iter
      (fun (src, dst) ->
        Clock.advance_by clock 0.5;
        Net.inject net src (T_util.tcp_packet src dst);
        Runtime.step rt)
      [ (1, 2); (2, 3); (3, 1) ];
    (net, rt)
  in
  let module X = Legosdn.State_transfer in
  let _, rt = world () and net', twin = world () in
  let xfer = X.create () and xfer' = X.create () in
  let first = X.ship xfer ~commit_index:1 rt in
  ignore (X.ship xfer' ~commit_index:1 twin);
  let second = X.ship xfer ~commit_index:2 rt in
  (* A copy, so the restored state's image is bytes no store has seen. *)
  List.iter
    (fun box ->
      Sandbox.restore_bytes box (Bytes.copy (Sandbox.snapshot_bytes box)))
    (Runtime.sandboxes twin);
  ignore (X.ship xfer' ~commit_index:2 twin);
  T_util.checkb "the manifests are kept" true
    (List.for_all2 (fun (_, a) (_, b) -> a == b) first.X.apps second.X.apps);
  T_util.checki "and shipped as a fresh ship" (X.shipped_bytes xfer')
    (X.shipped_bytes xfer);
  let restored = Runtime.create net' apps in
  X.restore xfer second restored;
  let states rt =
    List.map
      (fun b -> (Sandbox.name b, Sandbox.snapshot_bytes b))
      (Runtime.sandboxes rt)
  in
  T_util.checkb "the kept manifests restore the state" true
    (states restored = states rt)

(* Replay a committed log prefix through fresh sandboxes, mirroring the
   dispatch path: a context replica observes each entry first, then every
   subscribed app handles it. Returns each app's state bytes. *)
let replay_log net entries =
  let services = Services.create (Net.clock net) (Net.topology net) in
  let boxes =
    List.map
      (fun m -> Sandbox.create ~ckpt:(Checkpoint.create ~every:1000 ()) m)
      apps
  in
  List.iter Sandbox.prepare boxes;
  List.iter
    (fun (e : Raft.entry) ->
      Services.observe services e.Raft.event;
      List.iter
        (fun box ->
          if Sandbox.subscribes_to box (Event.kind_of e.Raft.event) then
            ignore (Sandbox.deliver box (Services.context services) e.Raft.event))
        boxes)
    entries;
  List.map (fun b -> (Sandbox.name b, Sandbox.snapshot_bytes b)) boxes

let take n l = List.filteri (fun i _ -> i < n) l

(* The replication theorem behind fail-over transparency, under random
   peer-channel faults, election timings, and an optional mid-run kill:
   (a) every replica's committed prefix is a prefix of the leader's log,
   and (b) replaying the leader's committed log from scratch reproduces
   the leader's live sandbox state — so any quorum member can continue. *)
let replay_matches_leader
    (seed, loss, duplicate, delay, lo, hi, kill_after, pairs) =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
  let peer_channel = { Channel.perfect with Channel.loss; duplicate; delay } in
  let c =
    Cluster.create ~config:(config ~lo ~hi ()) ~peer_channel ~seed net apps
  in
  List.iteri
    (fun i (src, dst) ->
      (match kill_after with
      | Some k when i = k -> Cluster.arm_kill c
      | _ -> ());
      Clock.advance_by clock 0.5;
      Net.tick net;
      Net.inject net src (T_util.tcp_packet src dst);
      Cluster.tick c)
    pairs;
  for _ = 1 to 4 do
    Clock.advance_by clock 0.5;
    Net.tick net;
    Cluster.tick c
  done;
  match Cluster.leader c with
  | None -> true (* lossy enough that no quorum formed: nothing to check *)
  | Some leader ->
      let leader_log = Cluster.node_log c leader in
      let commit = Cluster.node_commit c leader in
      (* (a) committed prefixes never diverge. *)
      for i = 0 to Cluster.nodes c - 1 do
        if Cluster.node_alive c i then begin
          let k = min (Cluster.node_commit c i) commit in
          if take k (Cluster.node_log c i) <> take k leader_log then
            QCheck2.Test.fail_reportf
              "node %d committed prefix (%d entries) diverges from leader %d"
              i k leader
        end
      done;
      (* (b) state is a pure function of the committed log. *)
      let replayed = replay_log net (take commit leader_log) in
      let rt =
        match Cluster.leader_runtime c with
        | Some rt -> rt
        | None -> QCheck2.Test.fail_reportf "leader %d has no runtime" leader
      in
      List.for_all
        (fun (name, bytes) ->
          match Runtime.sandbox rt name with
          | Some box -> Sandbox.snapshot_bytes box = bytes
          | None -> false)
        replayed

let prop_replay_equals_leader_state =
  let gen =
    QCheck2.Gen.(
      let* seed = int_bound 10_000 in
      let* loss = oneofl [ 0.; 0.; 0.1; 0.3 ] in
      let* duplicate = oneofl [ 0.; 0.2 ] in
      let* delay =
        oneofl [ Channel.No_delay; Channel.Fixed 0.05; Channel.Uniform (0., 0.2) ]
      in
      let* lo = oneofl [ 0.05; 0.15; 0.25 ] in
      let* hi_extra = oneofl [ 0.1; 0.2 ] in
      let* kill_after = oneofl [ None; Some 2; Some 5 ] in
      let* pairs =
        list_size (int_range 3 12)
          (pair (int_range 1 3) (int_range 1 3))
      in
      return (seed, loss, duplicate, delay, lo, lo +. hi_extra, kill_after, pairs))
  in
  let print (seed, loss, duplicate, delay, lo, hi, kill_after, pairs) =
    Printf.sprintf
      "seed=%d loss=%g duplicate=%g delay=%s lo=%g hi=%g kill_after=%s \
       pairs=[%s]"
      seed loss duplicate
      (match delay with
      | Channel.No_delay -> "none"
      | Channel.Fixed d -> Printf.sprintf "fixed %g" d
      | Channel.Uniform (a, b) -> Printf.sprintf "uniform %g %g" a b)
      lo hi
      (match kill_after with Some k -> string_of_int k | None -> "none")
      (String.concat "; "
         (List.map (fun (s, d) -> Printf.sprintf "%d,%d" s d) pairs))
  in
  QCheck2.Test.make ~name:"committed-log replay reproduces leader state"
    ~count:60 ~print gen replay_matches_leader

(* A shrunk instance of the property above: under 30% peer loss a leader's
   own heartbeat round reveals a higher term mid-poll, so it steps down
   inside its I/O loop — which then must not append to the log of what is
   now a follower. *)
let test_leader_steps_down_mid_poll () =
  T_util.checkb "replay matches leader after a mid-poll step-down" true
    (replay_matches_leader
       (2305, 0.3, 0., Channel.No_delay, 0.05, 0.15, None,
        [ (1, 1); (1, 1); (1, 1) ]))

let suite =
  [
    Alcotest.test_case "one leader after settling" `Quick test_election_converges;
    Alcotest.test_case "dispatch is commit-gated" `Quick test_commit_gated_dispatch;
    Alcotest.test_case "leader kill fails over" `Quick test_kill_leader_fails_over;
    Alcotest.test_case "a successor inherits its predecessor's shadows" `Quick
      test_successor_inherits_shadows;
    Alcotest.test_case "replication bytes price each entry once per peer"
      `Quick test_replication_bytes_price_entries;
    Alcotest.test_case "state transfers keep followers warm" `Quick
      test_followers_keep_sandboxes_warm;
    Alcotest.test_case "a ship of an unchanged state keeps its manifest"
      `Quick test_unchanged_ship_keeps_manifest;
    QCheck_alcotest.to_alcotest prop_replay_equals_leader_state;
    Alcotest.test_case "leader steps down mid-poll" `Quick
      test_leader_steps_down_mid_poll;
  ]
