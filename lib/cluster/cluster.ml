(* The replicated controller cluster: 2f+1 simulated controller instances
   sharing one southbound network, with the Runtime event log replicated
   through a Raft core over controller-to-controller channels that use
   the same seeded fault model as the southbound ones.

   The invariant the whole layer is built around: *dispatched implies
   committed*. The leader polls the network, appends each translated
   event to the Raft log, and only hands it to [Runtime.dispatch_event]
   once a majority has replicated it. A leader killed mid-transaction
   therefore only leaves effects of committed entries on the wire, and
   its successor — restored from the last shipped state transfer and
   re-dispatching the committed suffix with the same xid sequence —
   completes the interrupted transaction invisibly: switch-side xid
   dedup absorbs the commands that already landed, the rest apply
   fresh. *)

module Raft = Raft
module Net = Netsim.Net
module Clock = Netsim.Clock
module Sw = Netsim.Sw
module Channel = Netsim.Channel
module Event_queue = Netsim.Event_queue
module Topology = Netsim.Topology
module Event = Controller.Event
module Services = Controller.Services
module Message = Openflow.Message
module Runtime = Legosdn.Runtime
module Reliable = Legosdn.Reliable
module Netlog = Legosdn.Netlog
module Wire = Legosdn.Wire
module State_transfer = Legosdn.State_transfer

type node = {
  node_id : int;
  raft : Raft.t;
  mutable alive : bool;
  (* [Some] only while (or after) this node has led: followers keep
     sandboxes warm through state transfers, not live runtimes. *)
  mutable runtime : Runtime.t option;
  (* Context replica: advanced by [Services.observe] entry-by-entry just
     before dispatch, so the context apps consult depends only on the log
     prefix — identical on whichever leader dispatches the entry. *)
  mutable ctx_services : Services.t option;
  mutable last_dispatched : int;
}

type link = { dst : int; ch : Channel.t; inflight : Raft.msg Event_queue.t }

type t = {
  net : Net.t;
  modules : Controller.App_sig.app list;
  config : Runtime.config;
  nodes : node array;
  (* Every directed (src, dst) link, src-major, dst ascending, self-links
     left out: a fixed iteration order (hashtable iteration order must
     never decide delivery order) that {!link} indexes directly. *)
  links : link array;
  xfer : State_transfer.t;
  mutable latest : State_transfer.snapshot option;
  sync_every : int;
  on_runtime : Runtime.t -> unit;
  mutable tracer : Obs.Tracer.t;
  mutable kill_armed : bool;
  mutable kill_time : float option;
  mutable n_kills : int;
  mutable n_failovers : int;
  mutable had_leader : bool;
  mutable replication_msgs : int;
  mutable replication_bytes : int;
  mutable failover_latencies : float list;
  mutable last_runtime : Runtime.t option;
}

let now t = Clock.now (Net.clock t.net)

(* Byte cost of one peer message, for the replication-overhead metric:
   replicated events are priced at their AppVisor wire encoding (the
   bytes a real deployment would ship), plus a small fixed header per
   message. An entry is priced once, when the leader appends it
   ({!append}), however many peers and retransmissions carry it. *)
let msg_bytes = function
  | Raft.Request_vote _ | Raft.Vote _ | Raft.Append_reply _ -> 16
  | Raft.Append_entries { entries; _ } ->
      32
      + List.fold_left (fun acc (e : Raft.entry) -> acc + e.Raft.size) 0 entries

let append node ev =
  ignore (Raft.append node.raft ~size:(Wire.event_size ev) ev)

let create ?(config = Runtime.default_config) ?(sync_every = 8)
    ?(peer_channel = Channel.perfect) ?(on_runtime = fun _ -> ()) ~seed net
    modules =
  let replicas = max 1 config.Runtime.cluster.Runtime.replicas in
  let lo = config.Runtime.cluster.Runtime.election_lo in
  let hi = config.Runtime.cluster.Runtime.election_hi in
  let t0 = Clock.now (Net.clock net) in
  let ids = List.init replicas (fun i -> i) in
  let nodes =
    Array.init replicas (fun i ->
        {
          node_id = i;
          raft =
            Raft.create ~id:i ~peers:ids
              ~seed:((seed * 8191) + (i * 31) + 5)
              ~lo ~hi ~now:t0;
          alive = true;
          runtime = None;
          ctx_services = None;
          last_dispatched = 0;
        })
  in
  let links =
    Array.of_list
      (List.concat_map
         (fun i ->
           List.filter_map
             (fun j ->
               if i = j then None
               else
                 Some
                   {
                     dst = j;
                     ch =
                       Channel.create ~config:peer_channel
                         ~seed:((seed * 65537) + (i * 257) + j)
                         ();
                     inflight = Event_queue.create ();
                   })
             ids)
         ids)
  in
  {
    net;
    modules;
    config;
    nodes;
    links;
    xfer = State_transfer.create ();
    latest = None;
    sync_every = max 1 sync_every;
    on_runtime;
    tracer = Obs.Tracer.noop;
    kill_armed = false;
    kill_time = None;
    n_kills = 0;
    n_failovers = 0;
    had_leader = false;
    replication_msgs = 0;
    replication_bytes = 0;
    failover_latencies = [];
    last_runtime = None;
  }

let set_tracer t tracer = t.tracer <- tracer

let link t i j =
  t.links.((i * (Array.length t.nodes - 1)) + if j < i then j else j - 1)

(* Offer one peer message to its directed channel: the seeded fault model
   decides loss, duplication and delay, exactly as on the southbound. *)
let transmit t ~now:at src dst msg =
  if t.nodes.(dst).alive then begin
    t.replication_msgs <- t.replication_msgs + 1;
    t.replication_bytes <- t.replication_bytes + msg_bytes msg;
    let l = link t src dst in
    match Channel.forward l.ch with
    | None -> ()
    | Some delays ->
        List.iter
          (fun d -> Event_queue.push l.inflight ~time:(at +. d) msg)
          delays
  end

let route t ~now src outs =
  List.iter (fun (dst, msg) -> transmit t ~now src dst msg) outs

(* Deliver every due in-flight message, repeatedly, until quiescent:
   zero-delay replies generated during delivery are themselves due. The
   round bound is a safety net — Raft exchanges settle in a handful of
   rounds. *)
let pump t ~now:at =
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < 64 do
    incr rounds;
    continue_ := false;
    Array.iter
      (fun l ->
        if not (Event_queue.is_empty l.inflight) then
          List.iter
            (fun (_, msg) ->
              continue_ := true;
              let n = t.nodes.(l.dst) in
              if n.alive then
                route t ~now:at n.node_id (Raft.receive n.raft ~now:at msg))
            (Event_queue.drain_until l.inflight ~time:at))
      t.links
  done

(* Election timers. The cluster is stepped at the driver's cadence
   (coarser than the election timeout), so by the time a step runs, every
   timer may look expired. A live leader must still suppress elections:
   leaders act first — their heartbeats, delivered at this same virtual
   instant, reset every follower's timer before it is checked. Followers
   and candidates then act in (deadline, id) order, so after a clock jump
   past several deadlines the node whose timer expired first elects
   first, its Request_vote resets the granting peers' timers, and the
   dueling-candidates race resolves identically on every replay. *)
let election_pass t ~now:at =
  Array.iter
    (fun n ->
      if n.alive && Raft.role n.raft = Raft.Leader then begin
        route t ~now:at n.node_id (Raft.tick n.raft ~now:at);
        pump t ~now:at
      end)
    t.nodes;
  let by_deadline =
    List.sort
      (fun a b ->
        match Float.compare (Raft.deadline a.raft) (Raft.deadline b.raft) with
        | 0 -> Int.compare a.node_id b.node_id
        | c -> c)
      (Array.to_list t.nodes)
  in
  List.iter
    (fun n ->
      if n.alive && Raft.role n.raft <> Raft.Leader then begin
        route t ~now:at n.node_id (Raft.tick n.raft ~now:at);
        pump t ~now:at
      end)
    by_deadline

let gate_for t node _sid (msg : Message.t) =
  if not node.alive then false
  else if t.kill_armed && Message.is_state_altering msg.Message.payload then begin
    (* The armed kill fires on the next state-altering send: this one
       copy leaves (the transaction is now half on the wire), everything
       after is black-holed — the controller process is gone. *)
    t.kill_armed <- false;
    t.kill_time <- Some (now t);
    t.n_kills <- t.n_kills + 1;
    node.alive <- false;
    true
  end
  else true

let maybe_ship t node rt =
  if
    node.alive && node.last_dispatched > 0
    && node.last_dispatched mod t.sync_every = 0
  then begin
    let snap = State_transfer.ship t.xfer ~commit_index:node.last_dispatched rt in
    t.latest <- Some snap;
    if Obs.Tracer.enabled t.tracer then
      Obs.Tracer.instant t.tracer
        ~attrs:[ ("commit", string_of_int node.last_dispatched) ]
        Obs.Span.State_transfer
  end

(* Dispatch every committed-but-undispatched entry, in log order. The
   context replica advances first so the app-visible context at entry i
   is a function of the log prefix alone. A node that dies mid-entry
   (the armed kill) stops here; its successor re-dispatches the rest. *)
let dispatch_committed t node =
  match (node.runtime, node.ctx_services) with
  | Some rt, Some ctx ->
      while node.alive && node.last_dispatched < Raft.commit_index node.raft do
        let i = node.last_dispatched + 1 in
        let e = Raft.entry node.raft i in
        Services.observe ctx e.Raft.event;
        Runtime.dispatch_event rt e.Raft.event;
        node.last_dispatched <- i;
        maybe_ship t node rt
      done
  | _ -> ()

(* Replicate the leader's appended suffix and collect the acks; with
   perfect zero-delay peer channels commit advances within the call, so
   dispatch follows at the same virtual instant. *)
let replicate t ~now:at node =
  route t ~now:at node.node_id (Raft.heartbeats node.raft);
  pump t ~now:at

let install_leader t ~now:at node =
  let is_failover = t.had_leader in
  t.had_leader <- true;
  let base, xid_base =
    match t.latest with
    | Some s -> (s.State_transfer.commit_index, s.State_transfer.next_xid)
    | None -> (0, 1)
  in
  let rt =
    Runtime.create ~config:t.config ~xid_base ~controller_id:node.node_id
      ~southbound_gate:(gate_for t node) t.net t.modules
  in
  (match t.latest with
  | Some s -> State_transfer.restore t.xfer s rt
  | None -> ());
  (* Service state is exactly recoverable from the log: every ingest-time
     state change co-emits an event that carries it. The ingesting
     services replay the whole log (they must reflect every notification
     the cluster has consumed from the network); the context replica
     replays only up to the transfer base and then advances per-dispatch. *)
  let ingest_sv = Runtime.services rt in
  for i = 1 to Raft.last_index node.raft do
    Services.observe ingest_sv (Raft.entry node.raft i).Raft.event
  done;
  let ctx = Services.create (Net.clock t.net) (Net.topology t.net) in
  for i = 1 to min base (Raft.last_index node.raft) do
    Services.observe ctx (Raft.entry node.raft i).Raft.event
  done;
  Runtime.set_context_services rt (Some ctx);
  node.runtime <- Some rt;
  node.ctx_services <- Some ctx;
  node.last_dispatched <- base;
  t.last_runtime <- Some rt;
  t.on_runtime rt;
  (* Master/slave roles: switches reject state-altering commands from
     anyone but the current leader, so a deposed leader's stale in-flight
     commands can never race its successor's. *)
  List.iter
    (fun sid -> Sw.set_master (Net.switch t.net sid) (Some node.node_id))
    (Topology.switches (Net.topology t.net));
  (* A no-op entry under the new term lets the leader commit (and hence
     re-dispatch) its predecessor's tail — the standard Raft trick. It
     sits after the inherited entries, so re-dispatched xids still line
     up with the predecessor's sequence. *)
  append node (Event.Tick at);
  if is_failover then begin
    t.n_failovers <- t.n_failovers + 1;
    match t.kill_time with
    | Some k ->
        t.failover_latencies <- (at -. k) :: t.failover_latencies;
        t.kill_time <- None;
        Obs.Tracer.instant t.tracer
          ~attrs:
            [
              ("leader", string_of_int node.node_id);
              ("latency", Printf.sprintf "%.3f" (at -. k));
            ]
          Obs.Span.Failover
    | None ->
        Obs.Tracer.instant t.tracer
          ~attrs:[ ("leader", string_of_int node.node_id) ]
          Obs.Span.Failover
  end
  else
    Obs.Tracer.instant t.tracer
      ~attrs:[ ("leader", string_of_int node.node_id) ]
      Obs.Span.Election;
  replicate t ~now:at node;
  dispatch_committed t node

let takeover_pass t ~now:at =
  Array.iter
    (fun n ->
      if n.alive && Raft.role n.raft = Raft.Leader && n.runtime = None then
        install_leader t ~now:at n)
    t.nodes

(* The leader's I/O duty: poll the shared network, append each event to
   the log, replicate, and dispatch what committed. Polling re-checks
   after each batch (dispatch provokes replies), bounded by the same
   storm budget the single-controller step uses. A replication round can
   reveal a higher term and step the node down, so the role is checked
   again before every poll: a follower must not append. *)
let leader_io t ~now:at =
  let leads node = node.alive && Raft.role node.raft = Raft.Leader in
  Array.iter
    (fun node ->
      if leads node then
        match node.runtime with
        | None -> ()
        | Some rt ->
            (match Runtime.reliable rt with
            | Some rel -> Reliable.tick rel
            | None -> ());
            let budget = ref Controller.Monolithic.storm_guard_events in
            let rec go () =
              if leads node && !budget > 0 then
                match Runtime.poll_events rt with
                | [] -> ()
                | events ->
                    List.iter
                      (fun ev ->
                        if node.alive && !budget > 0 then begin
                          decr budget;
                          append node ev
                        end)
                      events;
                    if Obs.Tracer.enabled t.tracer then
                      Obs.Tracer.instant t.tracer
                        ~attrs:
                          [ ("events", string_of_int (List.length events)) ]
                        Obs.Span.Replicate;
                    replicate t ~now:at node;
                    dispatch_committed t node;
                    go ()
            in
            go ())
    t.nodes

let step t =
  let at = now t in
  pump t ~now:at;
  election_pass t ~now:at;
  takeover_pass t ~now:at;
  leader_io t ~now:at

let tick t =
  let at = now t in
  pump t ~now:at;
  election_pass t ~now:at;
  takeover_pass t ~now:at;
  Array.iter
    (fun node ->
      if node.alive && Raft.role node.raft = Raft.Leader then
        match node.runtime with
        | None -> ()
        | Some rt ->
            (match Runtime.reliable rt with
            | Some rel -> Reliable.tick rel
            | None -> ());
            (* The periodic tick is an event like any other: it goes
               through the log, so followers replay the exact event
               sequence — ticks included — and a run is reproducible
               from the log alone. *)
            append node (Event.Tick at);
            replicate t ~now:at node;
            dispatch_committed t node)
    t.nodes;
  leader_io t ~now:at

let arm_kill t = t.kill_armed <- true

(* ---------------- observation ---------------- *)

let nodes t = Array.length t.nodes

let alive_leaders t =
  Array.to_list t.nodes
  |> List.filter (fun n -> n.alive && Raft.role n.raft = Raft.Leader)
  |> List.map (fun n -> n.node_id)

let leader t =
  match alive_leaders t with
  | [ id ] -> Some id
  | [] -> None
  | ids ->
      (* Transient under partitions: prefer the highest term. *)
      List.fold_left
        (fun best id ->
          match best with
          | None -> Some id
          | Some b ->
              if Raft.term t.nodes.(id).raft > Raft.term t.nodes.(b).raft then
                Some id
              else best)
        None ids

let leader_runtime t =
  match leader t with Some id -> t.nodes.(id).runtime | None -> None

let active_runtime t =
  match leader_runtime t with Some rt -> Some rt | None -> t.last_runtime

let node_alive t i = t.nodes.(i).alive
let node_commit t i = Raft.commit_index t.nodes.(i).raft
let node_last_dispatched t i = t.nodes.(i).last_dispatched

let node_log t i =
  let raft = t.nodes.(i).raft in
  List.init (Raft.last_index raft) (fun k -> Raft.entry raft (k + 1))

let commit_index t =
  Array.fold_left
    (fun acc n -> if n.alive then max acc (Raft.commit_index n.raft) else acc)
    0 t.nodes

let kills t = t.n_kills
let failovers t = t.n_failovers
let elections t =
  Array.fold_left (fun acc n -> acc + Raft.elections_started n.raft) 0 t.nodes

let replication_msgs t = t.replication_msgs
let replication_bytes t = t.replication_bytes
let transfer_bytes t = State_transfer.shipped_bytes t.xfer
let transfers_shipped t = State_transfer.ships t.xfer
let failover_latencies t = List.rev t.failover_latencies

(* Every live node agrees on term and commit index — demanded by the
   fail-over oracle once channels are healed and the cluster has
   settled. *)
let converged t =
  let live =
    Array.to_list t.nodes |> List.filter (fun n -> n.alive)
  in
  match live with
  | [] -> false
  | n0 :: rest ->
      List.for_all
        (fun n ->
          Raft.term n.raft = Raft.term n0.raft
          && Raft.commit_index n.raft = Raft.commit_index n0.raft)
        rest
