(* Execute one scenario spec under the full LegoSDN runtime and evaluate
   the oracle suite at every quiescent point. The run has two phases: the
   scheduled phase replays the spec's elements on the virtual clock with
   Mid-phase oracles after every action, then the heal phase restores
   every channel, link and switch and lets the recovery machinery settle
   (long enough for the deepest retransmission backoff and the degraded
   probe interval) before the Final-phase oracles demand convergence.

   A spec with [replicas > 1] runs replicated: the controllers live in a
   {!Cluster.t} (perfect controller-to-controller channels — southbound
   faults are the subject under test), the [Kill_leader] element arms the
   mid-transaction leader kill, and a clean kill run ends with a
   differential check against the same spec minus the kill. *)

module Net = Netsim.Net
module Clock = Netsim.Clock
module Channel = Netsim.Channel
module Topology = Netsim.Topology
module Topo_gen = Netsim.Topo_gen
module Sw = Netsim.Sw
module Event_queue = Netsim.Event_queue
module Event = Controller.Event
module Runtime = Legosdn.Runtime
module Crashpad = Legosdn.Crashpad
module Reliable = Legosdn.Reliable
module Recovery_policy = Legosdn.Recovery_policy
module Traffic = Workload.Traffic
module Bug_corpus = Workload.Bug_corpus

type failure = { oracle : string; detail : string; at : float }

(* The equivalence surface of the dispatch-engine differential: everything
   two engines must agree on after running the same spec. Deliberately
   excludes protocol-mechanics counters (barriers, acks, checkpoints,
   replays) that legitimately differ under batching. *)
type final_state = {
  tables : (Openflow.Types.switch_id * Netsim.Flow_entry.t list) list;
      (* actual switch flow tables, sorted by switch id *)
  shadows : (Openflow.Types.switch_id * Netsim.Flow_entry.t list) list;
      (* controller intent (Reliable shadow tables) *)
  journal : Legosdn.Netlog.journal_entry list;
      (* every transaction, its commands and its fate, in order *)
  f_events : int;  (* events dispatched (semantic metric) *)
  f_crashes : int;  (* app crashes observed *)
  f_committed : int;  (* NetLog transactions committed *)
  f_aborted : int;  (* NetLog transactions rolled back *)
  f_policy_compromises : int;
      (* Equivalence compromises satisfied by recompiling declared intent *)
}

type result = {
  spec : Spec.t;
  failure : failure option;
  trace : Event.t list;  (* every event dispatched to the sandboxes *)
  checks : int;  (* individual oracle evaluations performed *)
  events_dispatched : int;
  delivered_to_dst : int;
      (* packets delivered to their destination host — the quantity the
         fail-over differential compares across runs *)
  spans : Obs.Span.t list;
      (* the run's structured trace; empty unless [trace_buffer] was given *)
  final : final_state;
}

let build_topology = function
  | Spec.Linear n -> Topo_gen.linear ~hosts_per_switch:1 (max 1 n)
  | Spec.Star n -> Topo_gen.star ~hosts_per_switch:1 (max 1 n)
  | Spec.Tree { depth; fanout } ->
      Topo_gen.tree ~hosts_per_leaf:1 ~depth:(max 0 depth)
        ~fanout:(max 1 fanout) ()
  | Spec.Ring n -> Topo_gen.ring ~hosts_per_switch:1 (max 3 n)
  | Spec.Fat_tree k ->
      (* Clamp to an even k within Topo_gen's port-range cap so a decoded
         spec can never abort the run. *)
      let k = min 128 (max 2 (k land lnot 1)) in
      Topo_gen.fat_tree k

(* Index resolution: every element reference is taken modulo the size of
   the set it names, so shrinking (or hand-editing) a spec can never
   produce a dangling reference. *)
let resolve idx lst =
  match lst with
  | [] -> None
  | _ -> Some (List.nth lst (idx mod List.length lst))

let executable_bugs = Bug_corpus.executable_bugs Bug_corpus.flowscale_like

let resolve_apps spec =
  let base =
    List.map
      (fun name ->
        match Apps.Suite.find name with
        | Some m -> m
        | None -> invalid_arg (Printf.sprintf "unknown app %S in spec" name))
      spec.Spec.apps
  in
  let n = List.length base in
  if n = 0 then invalid_arg "spec has no apps";
  let wrapped = Array.of_list base in
  List.iter
    (function
      | Spec.Inject_bug { slot; bug } -> (
          match resolve bug executable_bugs with
          | None -> ()
          | Some b ->
              let i = slot mod n in
              wrapped.(i) <- Apps.Faulty.wrap ~bug:b wrapped.(i))
      | _ -> ())
    spec.Spec.elements;
  Array.to_list wrapped

type action = Inject of Traffic.injection | Fault of Net.fault | Do_tick | Arm_kill

let schedule_of spec topo =
  let hosts = Topology.hosts topo in
  let switches = Topology.switches topo in
  let links = Workload.Failure_schedule.inter_switch_links topo in
  let queue = Event_queue.create () in
  let push_fault at f = Event_queue.push queue ~time:at (Fault f) in
  let ends (l : Topology.link) =
    match (l.a.node, l.b.node) with
    | Topology.Switch a, Topology.Switch b -> (Topology.Switch a, Topology.Switch b)
    | _ -> assert false (* inter_switch_links filtered already *)
  in
  List.iter
    (function
      | Spec.Flow { src; dst; start; packets; dport } -> (
          match (resolve src hosts, hosts) with
          | None, _ | _, [] -> ()
          | Some src_host, _ ->
              let n = List.length hosts in
              if n >= 2 then begin
                let dst_host =
                  let d = List.nth hosts (dst mod n) in
                  if d = src_host then List.nth hosts ((dst + 1) mod n) else d
                in
                List.iter
                  (fun (inj : Traffic.injection) ->
                    Event_queue.push queue ~time:inj.at (Inject inj))
                  (Traffic.flow_injections
                     {
                       Traffic.src_host;
                       dst_host;
                       start;
                       packets;
                       interval = 0.05;
                       dport;
                     })
              end)
      | Spec.Link_flap { link; down_at; downtime } -> (
          match resolve link links with
          | None -> ()
          | Some l ->
              let a, b = ends l in
              push_fault down_at (Net.Link_down (a, b));
              push_fault (down_at +. downtime) (Net.Link_up (a, b)))
      | Spec.Switch_reboot { sw; down_at; downtime } -> (
          match resolve sw switches with
          | None -> ()
          | Some sid ->
              push_fault down_at (Net.Switch_down sid);
              push_fault (down_at +. downtime) (Net.Switch_up sid))
      | Spec.Partition { sw; start; duration } -> (
          match resolve sw switches with
          | None -> ()
          | Some sid ->
              push_fault start (Net.Channel_partition sid);
              push_fault (start +. duration) (Net.Channel_heal sid))
      | Spec.Loss_burst { sw; loss; start; duration } -> (
          match resolve sw switches with
          | None -> ()
          | Some sid ->
              push_fault start (Net.Channel_loss (sid, loss));
              (* Restore the scenario's ambient loss, not a perfect
                 channel: the burst is an excursion, not a heal. *)
              push_fault (start +. duration)
                (Net.Channel_loss (sid, spec.Spec.base_loss)))
      | Spec.Kill_leader { at } ->
          (* Arm only: the kill itself fires on the leader's next
             state-altering send, so it always lands mid-transaction. On a
             single-controller spec the element is inert. *)
          Event_queue.push queue ~time:at Arm_kill
      | Spec.Inject_bug _ -> () (* consumed by resolve_apps *)
      | Spec.Byz_variant _ -> () (* consumed at panel-seating time *))
    spec.Spec.elements;
  let rec ticks t =
    if t < spec.Spec.duration then begin
      Event_queue.push queue ~time:t Do_tick;
      ticks (t +. 0.5)
    end
  in
  ticks 0.5;
  queue

(* The settle phase after healing must outlast the worst-case recovery
   lag: the deepest retransmission backoff (base_timeout * 2^max_retries)
   plus one degraded-probe interval. Capped at 30 virtual seconds so a
   pathological timer configuration (e.g. the no-retransmit plant) cannot
   stall the run, and so settling stays well inside the shortest app
   idle-timeout (60s) — rules must not expire under the oracles. *)
let settle_time spec =
  let worst_backoff =
    spec.Spec.base_timeout *. (2. ** float spec.Spec.max_retries)
  in
  Float.min 30.0
    (Float.max 4.0 (worst_backoff +. (spec.Spec.base_timeout *. 16.)))

let config_of ?(dispatch = Runtime.Sequential) spec =
  {
    Runtime.dispatch;
    Runtime.checkpoint_every = max 1 spec.Spec.checkpoint_every;
    (* Delta storage with the spec's fixed cadence: identical event
       scheduling to full blobs, but every fuzz run exercises the
       chunked store/materialize path. *)
    checkpoint_mode = Runtime.Ckpt_delta;
    crashpad =
      {
        Crashpad.default_config with
        Crashpad.policy = Recovery_policy.uniform spec.Spec.policy;
      };
    reliable =
      {
        Reliable.enabled = spec.Spec.reliable;
        base_timeout = spec.Spec.base_timeout;
        max_retries = spec.Spec.max_retries;
      };
    cluster =
      {
        Runtime.replicas = max 1 spec.Spec.replicas;
        election_lo = spec.Spec.election_lo;
        election_hi = spec.Spec.election_hi;
      };
    (* Execution parameters, like [dispatch]: a reproducer's verdict must
       not depend on them. The budget only changes cache residency, and
       generated workloads are expanded into concrete Flow elements before
       a spec is ever serialized. *)
    trace_cache_budget = None;
    workload = None;
    (* Adaptive shedding is pinned off under the fuzzer: a shed panel
       masks nothing, which would make the masking oracle depend on how
       many clean events happened to precede the byzantine one. *)
    nversion =
      (if spec.Spec.nversion > 1 then
         Some
           {
             Legosdn.Voter.nv_replicas = spec.Spec.nversion;
             nv_adaptive = false;
             nv_shed_after = 8;
           }
       else None);
  }

let has_kill spec =
  List.exists
    (function Spec.Kill_leader _ -> true | _ -> false)
    spec.Spec.elements

let without_kill spec =
  {
    spec with
    Spec.elements =
      List.filter
        (function Spec.Kill_leader _ -> false | _ -> true)
        spec.Spec.elements;
  }

(* [trace_buffer]: ring-buffer capacity for span tracing; [None] runs with
   the no-op tracer. The tracer's timebases are the scenario's virtual
   clock plus the deterministic logical tick counter, so traced runs stay
   byte-for-byte replayable. [dispatch] selects the event-dispatch engine
   — an execution parameter, not part of the spec, so one recorded spec
   replays under either engine. *)
let rec run ?(oracles = Oracle.all) ?trace_buffer
    ?(dispatch = Runtime.Sequential) spec =
  let clock = Clock.create () in
  let topo = build_topology spec.Spec.topo in
  let channel_config =
    {
      Channel.loss = spec.Spec.base_loss;
      reply_loss = spec.Spec.base_loss;
      duplicate = spec.Spec.duplicate;
      delay =
        (if spec.Spec.delay > 0. then Channel.Fixed spec.Spec.delay
         else Channel.No_delay);
    }
  in
  let net =
    Net.create ~channel:channel_config
      ~channel_seed:((spec.Spec.seed * 131) + 17)
      clock topo
  in
  let config = config_of ~dispatch spec in
  let tracer =
    match trace_buffer with
    | None -> Obs.Tracer.noop
    | Some capacity ->
        Obs.Tracer.create ~capacity ~now:(fun () -> Clock.now clock) ()
  in
  let trace = ref [] in
  let taps = ref [] in
  let journals = ref [] in
  (* Runs once for a single controller; once per elected leader in a
     replicated run — each leader builds a fresh runtime, so the tracer,
     the dispatch tap and the NetLog close hook must follow it. Each
     runtime's closed transactions are kept apart, newest first. *)
  let attach rt =
    Runtime.set_tracer rt tracer;
    (match Runtime.netlog rt with
    | Some nl ->
        let closed = ref [] in
        journals := (rt, closed) :: !journals;
        Legosdn.Netlog.set_close_hook nl (fun e -> closed := e :: !closed)
    | None -> ());
    let tap =
      Obs.Hub.subscribe (Runtime.hub rt) (function
        | Obs.Hub.Dispatched ev -> trace := ev :: !trace
        | Obs.Hub.Inv_cache _ | Obs.Hub.Delivery _ -> ())
    in
    taps := (Runtime.hub rt, tap) :: !taps
  in
  let apps = resolve_apps spec in
  (* Byz_variant elements seat one fault-injected variant on the named
     slot's voting panel: nversion - 1 copies of the (possibly already
     Inject_bug-wrapped) base app plus one byzantine-blackhole variant,
     seated last. The byzantine copy is marked non-resyncable: its Faulty
     wrapper changes the sandbox state type, so a majority snapshot can
     never be restored into it. Panels exist only on the solo path — the
     byz-variant plant pins [replicas = 1]. *)
  let nv_variants =
    let n_apps = List.length apps in
    let byz_slots =
      List.filter_map
        (function
          | Spec.Byz_variant { slot } -> Some (slot mod n_apps) | _ -> None)
        spec.Spec.elements
      |> List.sort_uniq compare
    in
    if spec.Spec.nversion <= 1 || byz_slots = [] then None
    else begin
      let arr = Array.of_list apps in
      let byz_bug =
        Apps.Bug_model.make
          (Apps.Bug_model.On_kind Event.K_packet_in)
          Apps.Bug_model.Byzantine_blackhole
      in
      let seats =
        List.map
          (fun i ->
            let base = arr.(i) in
            let module M = (val base : Controller.App_sig.INTENT_APP) in
            ( M.name,
              List.init (spec.Spec.nversion - 1) (fun _ -> (base, true))
              @ [ (Apps.Faulty.wrap ~bug:byz_bug base, false) ] ))
          byz_slots
      in
      Some (fun name -> List.assoc_opt name seats)
    end
  in
  let cluster, solo_rt =
    if spec.Spec.replicas > 1 then begin
      let c =
        Cluster.create ~config ~on_runtime:attach ~seed:spec.Spec.seed net
          apps
      in
      Cluster.set_tracer c tracer;
      (Some c, None)
    end
    else begin
      let rt = Runtime.create ~config ?nv_variants net apps in
      attach rt;
      (None, Some rt)
    end
  in
  let current_rt () =
    match cluster with Some c -> Cluster.active_runtime c | None -> solo_rt
  in
  let failure = ref None in
  let checks = ref 0 in
  let fail ~oracle detail =
    if !failure = None then
      failure := Some { oracle; detail; at = Clock.now clock }
  in
  let check_oracles phase =
    (* Until the first election a replicated run has no runtime to judge;
       the cluster is still in its pre-handshake state, so there is
       nothing the oracles could meaningfully check. *)
    match current_rt () with
    | None -> ()
    | Some rt ->
        if !failure = None then
          List.iter
            (fun (o : Oracle.t) ->
              if !failure = None then begin
                incr checks;
                match
                  o.Oracle.check
                    {
                      Oracle.spec;
                      rt;
                      net;
                      cluster;
                      phase;
                      elapsed = Clock.now clock;
                    }
                with
                | Oracle.Pass -> ()
                | Oracle.Fail detail -> fail ~oracle:o.Oracle.name detail
              end)
            oracles
  in
  let guarded_step () =
    try
      match cluster with
      | Some c -> Cluster.step c
      | None -> ( match solo_rt with Some rt -> Runtime.step rt | None -> ())
    with exn ->
      fail ~oracle:"controller-survives"
        (Printf.sprintf "exception escaped step: %s" (Printexc.to_string exn))
  in
  let guarded_tick () =
    try
      match cluster with
      | Some c -> Cluster.tick c
      | None -> ( match solo_rt with Some rt -> Runtime.tick rt | None -> ())
    with exn ->
      fail ~oracle:"controller-survives"
        (Printf.sprintf "exception escaped tick: %s" (Printexc.to_string exn))
  in
  (* Initial handshake: switch features reach the apps before traffic (in
     a replicated run they wait in the network queue for the first
     elected leader to poll them). *)
  guarded_step ();
  let queue = schedule_of spec topo in
  let rec loop () =
    if !failure = None then
      match Event_queue.pop queue with
      | None -> ()
      | Some (time, action) ->
          Clock.advance_to clock (Float.max time (Clock.now clock));
          Net.tick net;
          (match action with
          | Inject inj -> Net.inject net inj.Traffic.src inj.Traffic.packet
          | Fault f -> Net.apply_fault net f
          | Do_tick -> guarded_tick ()
          | Arm_kill -> (
              match cluster with Some c -> Cluster.arm_kill c | None -> ()));
          guarded_step ();
          check_oracles Oracle.Mid;
          loop ()
  in
  loop ();
  (* Heal phase: perfect channels, every switch and link back up. *)
  if !failure = None then begin
    List.iter
      (fun sid ->
        let ch = Net.channel net sid in
        Channel.set_config ch Channel.perfect;
        Channel.set_partitioned ch false)
      (Topology.switches topo);
    List.iter
      (fun sid ->
        if not (Net.switch net sid).Sw.up then
          Net.apply_fault net (Net.Switch_up sid))
      (Topology.switches topo);
    List.iter
      (fun (l : Topology.link) ->
        if not l.Topology.up then
          match (l.a.node, l.b.node) with
          | Topology.Switch a, Topology.Switch b ->
              Net.apply_fault net (Net.Link_up (Topology.Switch a, Topology.Switch b))
          | _ -> ())
      (Workload.Failure_schedule.inter_switch_links topo);
    guarded_step ();
    (* Settle: drive only the clock and the recovery machinery — no new
       app activity — until every retransmission and probe has fired (and,
       replicated, until any pending election and fail-over completes). *)
    let budget = settle_time spec in
    let step_size = 0.25 in
    let steps = int_of_float (Float.ceil (budget /. step_size)) in
    for _ = 1 to steps do
      if !failure = None then begin
        Clock.advance_by clock step_size;
        Net.tick net;
        guarded_step ()
      end
    done;
    check_oracles Oracle.Final
  end;
  (* Differential half of the fail-over oracle: a clean kill run must
     deliver exactly the packets a never-killed run of the same spec
     (same replicas, same seeds) delivers to their destinations. Sound
     because the kill-leader plant pins loss/duplication to zero and uses
     traffic-only elements: every injected packet reaches its destination
     exactly once in both runs, whatever controller-side paths differ. *)
  if
    !failure = None && cluster <> None && has_kill spec
    && spec.Spec.base_loss = 0. && spec.Spec.duplicate = 0.
    && Spec.is_clean (without_kill spec)
  then begin
    let baseline = run ~oracles ~dispatch (without_kill spec) in
    match baseline.failure with
    | Some f ->
        fail ~oracle:"leader-failover"
          (Printf.sprintf "baseline (kill removed) run failed %s: %s" f.oracle
             f.detail)
    | None ->
        let mine = (Net.stats net).Net.delivered_to_dst in
        if mine <> baseline.delivered_to_dst then
          fail ~oracle:"leader-failover"
            (Printf.sprintf
               "kill run delivered %d packet(s) to destinations, baseline %d"
               mine baseline.delivered_to_dst)
  end;
  List.iter (fun (hub, tap) -> Obs.Hub.unsubscribe hub tap) !taps;
  let final =
    let tables =
      Topology.switches topo |> List.sort compare
      |> List.map (fun sid ->
             (sid, Netsim.Flow_table.entries (Net.switch net sid).Sw.table))
    in
    match current_rt () with
    | None ->
        {
          tables;
          shadows = [];
          journal = [];
          f_events = 0;
          f_crashes = 0;
          f_committed = 0;
          f_aborted = 0;
          f_policy_compromises = 0;
        }
    | Some rt ->
        let m = Runtime.metrics rt in
        {
          tables;
          shadows =
            (match Runtime.reliable rt with
            | Some rel -> Reliable.export_shadows rel
            | None -> []);
          journal =
            (match List.assq_opt rt !journals with
            | Some closed -> List.rev !closed
            | None -> []);
          f_events = Legosdn.Metrics.(get m events);
          f_crashes = Legosdn.Metrics.(get m crashes);
          f_committed =
            (match Runtime.netlog rt with
            | Some nl -> Legosdn.Netlog.committed nl
            | None -> 0);
          f_aborted =
            (match Runtime.netlog rt with
            | Some nl -> Legosdn.Netlog.aborted nl
            | None -> 0);
          f_policy_compromises = Legosdn.Metrics.(get m policy_compromises);
        }
  in
  {
    spec;
    failure = !failure;
    trace = List.rev !trace;
    checks = !checks;
    events_dispatched =
      (match (cluster, solo_rt) with
      | Some c, _ -> Cluster.commit_index c
      | None, Some rt -> Runtime.events_processed rt
      | None, None -> 0);
    delivered_to_dst = (Net.stats net).Net.delivered_to_dst;
    spans = Obs.Tracer.spans tracer;
    final;
  }
