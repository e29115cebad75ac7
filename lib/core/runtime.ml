open Controller
module Net = Netsim.Net
module Clock = Netsim.Clock

type ckpt_mode = Ckpt_full | Ckpt_delta | Ckpt_delta_adaptive

type cluster_config = {
  replicas : int;
  election_lo : float;
  election_hi : float;
}

let default_cluster_config =
  { replicas = 1; election_lo = 0.15; election_hi = 0.3 }

type dispatch_mode = Sequential | Batched of { max_batch : int }

let default_sharded = Batched { max_batch = 64 }

(* Parameters of the trace-driven workload generator (lib/workload's
   [Trace_gen]). They live here — not in lib/workload — so scenario
   configs ([Config_lang]) and reproducers can carry them without the core
   depending on the generator. *)
type workload_config = {
  w_seed : int;  (* generator stream, independent of other seeds *)
  w_rate : float;  (* mean flow arrivals per virtual second at peak load *)
  w_alpha : float;  (* Pareto shape of inter-arrivals; <=2 is heavy-tailed *)
  w_diurnal : float;  (* modulation depth, 0 (flat) .. 1 (full trough) *)
  w_period : float;  (* diurnal period, virtual seconds *)
  w_churn : float;  (* host leave(+rejoin) events per virtual second *)
}

let default_workload_config =
  {
    w_seed = 1;
    w_rate = 20.;
    w_alpha = 1.5;
    w_diurnal = 0.5;
    w_period = 60.;
    w_churn = 0.;
  }

type config = {
  checkpoint_every : int;
  checkpoint_mode : ckpt_mode;
  crashpad : Crashpad.config;
  reliable : Reliable.config;
  cluster : cluster_config;
  dispatch : dispatch_mode;
  trace_cache_budget : int option;
  workload : workload_config option;
  nversion : Voter.config option;
}

let default_config =
  {
    checkpoint_every = 1;
    checkpoint_mode = Ckpt_full;
    crashpad = Crashpad.default_config;
    reliable = Reliable.default_config;
    cluster = default_cluster_config;
    dispatch = Sequential;
    trace_cache_budget = None;
    workload = None;
    nversion = None;
  }

type t = {
  network : Net.t;
  mutable services_state : Services.t;
  mutable context_services : Services.t option;
  units : Voter.t list;  (* one per application *)
  boxes : Sandbox.t list;  (* every sandbox, panel variants included *)
  netlog_instance : Netlog.t;
  reliable_layer : Reliable.t;
  incremental_checker : Invariants.Incremental.t;
  metrics_store : Metrics.t;
  ticket_store : Ticket.store;
  cfg : config;
  mutable reply_backlog : (string * Event.t) list;
  mutable n_shed : int;
  obs_hub : Obs.Hub.t;
  tracer_cell : Obs.Tracer.t ref;
}

(* Delivery activity becomes instant marks in the trace, so a Chrome
   timeline shows retransmissions and resyncs against the spans of the
   transactions that provoked them. *)
let bridge_delivery_to_tracer tracer_cell = function
  | Obs.Hub.Delivery d ->
      let tracer = !tracer_cell in
      if Obs.Tracer.enabled tracer then begin
        let i = string_of_int in
        match d with
        | Obs.Hub.Sent { sw; xid } ->
            Obs.Tracer.instant tracer
              ~attrs:[ ("sw", i sw); ("xid", i xid) ]
              Obs.Span.Delivery
        | Obs.Hub.Acked { sw; xid } ->
            Obs.Tracer.instant tracer
              ~attrs:[ ("sw", i sw); ("xid", i xid); ("acked", "true") ]
              Obs.Span.Delivery
        | Obs.Hub.Retransmitted { sw; xid; attempt } ->
            Obs.Tracer.instant tracer
              ~attrs:[ ("sw", i sw); ("xid", i xid); ("attempt", i attempt) ]
              Obs.Span.Retransmit
        | Obs.Hub.Resynced { sw; rules } ->
            Obs.Tracer.instant tracer
              ~attrs:[ ("sw", i sw); ("rules", i rules) ]
              Obs.Span.Resync
        | Obs.Hub.Queued _ | Obs.Hub.Degraded _ -> ()
      end
  | Obs.Hub.Dispatched _ | Obs.Hub.Inv_cache _ -> ()

let create ?(config = default_config) ?xid_base ?controller_id
    ?southbound_gate ?nv_variants network modules =
  let metrics_store = Metrics.create () in
  let obs_hub = Obs.Hub.create () in
  let tracer_cell = ref Obs.Tracer.noop in
  ignore (Obs.Hub.subscribe obs_hub (bridge_delivery_to_tracer tracer_cell));
  (* NetLog speaks to switches through the reliable layer, so every
     transaction command — rollback traffic included — is barrier-acked
     and retransmitted over a lossy channel. *)
  let reliable_layer =
    Reliable.create ~config:config.reliable ?controller_id
      ~metrics:metrics_store
      ~notify:(fun d -> Obs.Hub.emit obs_hub (Obs.Hub.Delivery d))
      network
  in
  let transport =
    match southbound_gate with
    | None -> Reliable.send reliable_layer
    | Some gate ->
        (* The cluster's controlled-kill hook: a closed gate black-holes
           the send (as a crashed process would) without raising — an
           exception here would unwind through the transaction and be
           misread as an app failure. *)
        fun sid msg ->
          if gate sid msg then Reliable.send reliable_layer sid msg else []
  in
  let netlog_instance =
    Netlog.create ~transport ?xid_base ~metrics:metrics_store network
  in
  let incremental_checker =
    let observer ev =
      (match ev with
      | Invariants.Incremental.Trace_hit ->
          Metrics.bump metrics_store Metrics.inv_hits;
          Obs.Tracer.instant !tracer_cell Obs.Span.Inv_cache_hit
      | Invariants.Incremental.Trace_miss ->
          Metrics.bump metrics_store Metrics.inv_misses;
          Obs.Tracer.instant !tracer_cell Obs.Span.Inv_cache_miss
      | Invariants.Incremental.Trace_invalidated ->
          Metrics.bump metrics_store Metrics.inv_invalidations
      | Invariants.Incremental.Switch_recaptured _ ->
          Metrics.bump metrics_store Metrics.inv_recaptures
      | Invariants.Incremental.Check_memoized ->
          Metrics.bump metrics_store Metrics.inv_memoized
      | Invariants.Incremental.Trace_evicted _ ->
          Metrics.bump metrics_store Metrics.inv_evictions);
      Obs.Hub.emit obs_hub (Obs.Hub.Inv_cache ev)
    in
    Invariants.Incremental.create ~observer
      ?trace_cache_budget:config.trace_cache_budget network
  in
  let ckpt_observer = function
    | Checkpoint.Took { written; chunk_hits; chunk_misses; deduped } ->
        Metrics.bump metrics_store Metrics.checkpoints;
        Metrics.bump_by metrics_store Metrics.ckpt_bytes_written written;
        Metrics.bump_by metrics_store Metrics.ckpt_chunk_hits chunk_hits;
        Metrics.bump_by metrics_store Metrics.ckpt_chunk_misses chunk_misses;
        Metrics.bump_by metrics_store Metrics.ckpt_bytes_deduped deduped
    | Checkpoint.Materialized ->
        Metrics.bump metrics_store Metrics.ckpt_restores
  in
  let make_ckpt () =
    let k = config.checkpoint_every in
    match config.checkpoint_mode with
    | Ckpt_full -> Checkpoint.create ~observer:ckpt_observer ~every:k ()
    | Ckpt_delta ->
        Checkpoint.create_delta ~observer:ckpt_observer
          ~cadence:(Checkpoint.Every k) ()
    | Ckpt_delta_adaptive ->
        (* A journaled event replays in microseconds while a full snapshot
           write is ~the state size; 64 write-byte units per event keeps
           the journal short for big states and long for small ones. The
           fixed k survives as the floor; the ceiling bounds replay. *)
        Checkpoint.create_delta ~observer:ckpt_observer
          ~cadence:
            (Checkpoint.Adaptive
               {
                 replay_cost_per_event = 64;
                 min_events = k;
                 max_events = max (8 * k) 64;
               })
          ()
  in
  (* Every application is one unit: a panel of [nv_replicas] variants
     under N-version dispatch, else a panel of one, which never votes. *)
  let units =
    List.map
      (fun m ->
        let module M = (val m : App_sig.INTENT_APP) in
        let variants =
          match config.nversion with
          | Some vcfg when vcfg.Voter.nv_replicas > 1 -> (
              match Option.bind nv_variants (fun hook -> hook M.name) with
              | Some specs -> specs
              | None -> List.init vcfg.Voter.nv_replicas (fun _ -> (m, true)))
          | Some _ | None -> [ (m, true) ]
        in
        Voter.create ?config:config.nversion ~make_ckpt variants)
      modules
  in
  let boxes = List.concat_map Voter.sandboxes units in
  (match config.dispatch with
  | Batched { max_batch } when max_batch <= 0 ->
      invalid_arg "Runtime.create: max_batch <= 0"
  | Sequential | Batched _ -> ());
  {
    network;
    services_state = Services.create (Net.clock network) (Net.topology network);
    context_services = None;
    units;
    boxes;
    netlog_instance;
    reliable_layer;
    incremental_checker;
    metrics_store;
    ticket_store = Ticket.store ();
    cfg = config;
    reply_backlog = [];
    n_shed = 0;
    obs_hub;
    tracer_cell;
  }

let net t = t.network
let services t = t.services_state
let sandboxes t = t.boxes
let sandbox t name = List.find_opt (fun b -> Sandbox.name b = name) t.boxes
let voters t = t.units
let metrics t = t.metrics_store
let tickets t = Ticket.all t.ticket_store
let ticket_store t = t.ticket_store
let netlog t = Some t.netlog_instance
let reliable t = Some t.reliable_layer
let incremental t = t.incremental_checker
let events_processed t = Metrics.get t.metrics_store Metrics.events
let events_shed t = t.n_shed
let config t = t.cfg

let now t = Clock.now (Net.clock t.network)
let hub t = t.obs_hub
let tracer t = !(t.tracer_cell)

let set_tracer t tracer =
  t.tracer_cell := tracer;
  Netlog.set_tracer t.netlog_instance tracer

(* The service state applications see through their context. Normally the
   ingesting services; the cluster layer overrides it with a replica built
   by [Services.observe] over the committed log, so a fail-over leader
   re-dispatching an old entry hands apps the context the original leader
   had at that entry — not the (later) ingest-time state. *)
let ctx_services t =
  match t.context_services with Some s -> s | None -> t.services_state

let set_context_services t s = t.context_services <- s

let links_of t sid =
  Services.live_links (ctx_services t)
  |> List.filter (fun (l : Event.link) -> l.src_switch = sid)

let deps ?(batched_checkpoints = false) t : Crashpad.deps =
  {
    netlog = t.netlog_instance;
    incremental = t.incremental_checker;
    context = (fun () -> Services.context (ctx_services t));
    links_of = (fun sid -> links_of t sid);
    metrics = t.metrics_store;
    tickets = t.ticket_store;
    now = (fun () -> now t);
    enqueue_reply =
      (fun app ev -> t.reply_backlog <- t.reply_backlog @ [ (app, ev) ]);
    unreachable = Reliable.is_degraded t.reliable_layer;
    tracer = !(t.tracer_cell);
    batched_checkpoints;
  }

let rec drain_replies t deps =
  match t.reply_backlog with
  | [] -> ()
  | (app, ev) :: rest ->
      t.reply_backlog <- rest;
      Option.iter
        (fun v -> Voter.dispatch t.cfg.crashpad deps v ev)
        (List.find_opt (fun v -> Voter.name v = app) t.units);
      drain_replies t deps

(* The per-event delivery pipeline, shared verbatim by both modes:
   everything inside the [Event_root] span is what "dispatch one event"
   means. The modes differ only in what surrounds it — per-event
   barrier chases and checkpoints (sequential) versus per-batch ones
   (batched). *)
let dispatch_with t deps event =
  let tracer = !(t.tracer_cell) in
  let attrs =
    if Obs.Tracer.enabled tracer then
      [ ("kind", Event.kind_name (Event.kind_of event)) ]
    else []
  in
  Obs.Tracer.with_span tracer ~attrs Obs.Span.Event_root (fun () ->
      Obs.Hub.emit t.obs_hub (Obs.Hub.Dispatched event);
      Metrics.bump t.metrics_store Metrics.events;
      List.iter (fun v -> Voter.dispatch t.cfg.crashpad deps v event) t.units;
      drain_replies t deps)

let dispatch_event t event = dispatch_with t (deps t) event

(* Checkpoints may be amortized to one per batch only when the cadence is
   deterministic per event (Every 1): then the sequential engine's journal
   is provably empty at every delivery, the batched journal only ever
   spans the current batch, and — because services never ingest while a
   batch is dispatching — replaying that journal under the frozen context
   reproduces the original state transitions exactly. Both engines
   therefore recover precisely the state before the crashing event. With
   k > 1 or the adaptive cadence the journal may span polls, where
   sequential replay already runs under a context the events were not
   delivered under; batched dispatch then mirrors the per-event
   [Sandbox.prepare] to stay byte-equivalent. *)
let batch_amortizes_checkpoints t =
  t.cfg.checkpoint_every = 1 && t.cfg.checkpoint_mode <> Ckpt_delta_adaptive

(* Dispatch one batch in arrival order. One [Reliable] batch brackets
   the whole thing, so flow-mods to a fault-free switch share a single
   barrier. *)
let dispatch_batch t batch =
  Reliable.begin_batch t.reliable_layer;
  let tracer = !(t.tracer_cell) in
  let attrs =
    if Obs.Tracer.enabled tracer then
      [ ("events", string_of_int (List.length batch)) ]
    else []
  in
  Obs.Tracer.with_span tracer ~attrs Obs.Span.Batch_root (fun () ->
      let batched_checkpoints = batch_amortizes_checkpoints t in
      if batched_checkpoints then
        List.iter (fun box -> Sandbox.prepare ~tracer box) t.boxes;
      List.iter (dispatch_with t (deps ~batched_checkpoints t)) batch);
  Reliable.end_batch t.reliable_layer

(* What the dispatch mode decides: how many events one dispatch takes,
   and whether they go out one by one or as a batch. *)
let batch_size t =
  match t.cfg.dispatch with Sequential -> 1 | Batched { max_batch } -> max_batch

let dispatch_events t events =
  match t.cfg.dispatch with
  | Sequential -> List.iter (dispatch_event t) events
  | Batched _ -> dispatch_batch t events

(* A switch that disconnects takes its flow table with it: prune its
   entries from every application's installed-intent record so that when
   it returns, reconciliation re-derives and re-installs its rules from
   declared policy instead of concluding [`Noop]. (The reliable layer's
   shadow resync also replays its rules on reconnect; the re-adds are
   idempotent, and pruning here keeps intent correct even with the
   reliable layer disabled.) *)
let forget_switch_intent t events =
  List.iter
    (function
      | Event.Switch_down sid ->
          List.iter
            (fun v -> Crashpad.forget_switch (Voter.intent_record v) sid)
            t.units
      | _ -> ())
    events

(* One poll round: drain the network's notification queue, feed the
   reliable layer, and translate to controller events — without
   dispatching them. The cluster layer uses this to interpose log
   replication between "event observed" and "event dispatched". *)
let poll_events t =
  match Net.poll t.network with
  | [] -> []
  | notifications ->
      List.iter (Reliable.observe t.reliable_layer) notifications;
      let events =
        List.concat_map (Services.ingest t.services_state) notifications
      in
      forget_switch_intent t events;
      events

let rec take n = function
  | x :: rest when n > 0 ->
      let xs, rest = take (n - 1) rest in
      (x :: xs, rest)
  | rest -> ([], rest)

(* Drain-until-quiet with a broadcast-storm guard, mirroring
   Monolithic.step so the two architectures process identical event
   streams: each poll round is dispatched in arrival order, one dispatch
   of up to [batch_size] events at a time, and the budget falls once per
   dispatched event. When it runs out (an app flooding a cyclic topology
   can multiply packet-ins exponentially), the excess is shed the way an
   overloaded controller connection would shed it. *)
let step t =
  Reliable.tick t.reliable_layer;
  let budget = ref Monolithic.storm_guard_events in
  let rec dispatch_round = function
    | [] -> ()
    | events when !budget <= 0 -> t.n_shed <- t.n_shed + List.length events
    | events ->
        let batch, rest = take (min (batch_size t) !budget) events in
        dispatch_events t batch;
        budget := !budget - List.length batch;
        dispatch_round rest
  in
  let rec go () =
    match poll_events t with
    | [] -> ()
    | events ->
        dispatch_round events;
        if !budget > 0 then go ()
        else t.n_shed <- t.n_shed + List.length (Net.poll t.network)
  in
  go ()

(* The Tick goes out alone: under batched dispatch it is a batch of its
   own. [step] never meets one, because [Services.ingest] never yields a
   Tick. *)
let tick t =
  Reliable.tick t.reliable_layer;
  dispatch_events t [ Event.Tick (now t) ]

let upgrade_controller t =
  (* Platform restart: controller-side state is rebuilt from the network;
     sandboxed applications are untouched and keep their state. *)
  t.services_state <- Services.create (Net.clock t.network) (Net.topology t.network);
  t.reply_backlog <- [];
  let topo = Net.topology t.network in
  List.iter
    (fun sid ->
      let sw = Net.switch t.network sid in
      if sw.Netsim.Sw.up then
        let events =
          Services.ingest t.services_state
            (Net.Switch_connected (sid, Netsim.Sw.features sw))
        in
        List.iter (dispatch_event t) events)
    (Netsim.Topology.switches topo)
