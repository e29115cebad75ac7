open Openflow
module Net = Netsim.Net
module Clock = Netsim.Clock
module Flow_table = Netsim.Flow_table
module Flow_entry = Netsim.Flow_entry

type config = {
  enabled : bool;
  base_timeout : float;
  max_retries : int;
}

let default_config = { enabled = true; base_timeout = 0.05; max_retries = 8 }

(* The retransmission backoff schedule: how long a message waits after its
   [attempts]-th transmission before the next one. Attempt 0 is the
   original send, so the schedule is base, 2*base, 4*base, ... *)
let backoff_delay cfg attempts = cfg.base_timeout *. (2. ** float attempts)

type health = Healthy | Degraded

type pending = {
  p_sid : Types.switch_id;
  p_msg : Message.t;  (* original xid preserved: retransmits dedup *)
  mutable p_sent : bool;
      (* Per-switch FIFO: only the oldest pending message per switch is on
         the wire. Later ones are held back until it is acknowledged —
         otherwise a retransmission could land after a logically later
         message (e.g. an Add resurrected after its rollback Delete). *)
  mutable p_barrier_xid : Types.xid;
  mutable p_attempts : int;
  mutable p_next_at : float;
}

(* Barrier xids live in their own range so they can never collide with
   Netlog's transaction xids (a counter from 1). *)
let barrier_xid_base = 1_000_000_000

(* Messages whose per-message barrier chase was deferred to [end_batch]:
   one barrier per touched switch closes them all. Newest first. *)
type batch = { mutable deferred : (Types.switch_id * Message.t) list }

type t = {
  net : Net.t;
  from : int option;  (* controller identity for master/slave role checks *)
  cfg : config;
  metrics : Metrics.t;
  notify : Obs.Hub.delivery -> unit;
  shadows : (Types.switch_id, Flow_table.t) Hashtbl.t;
  states : (Types.switch_id, health) Hashtbl.t;
  probe_at : (Types.switch_id, float) Hashtbl.t;
      (* next half-open probe per degraded switch *)
  mutable queue : pending list;  (* unordered; scanned on tick *)
  mutable batch : batch option;
  mutable next_barrier_xid : Types.xid;
  mutable n_degraded : int;
}

let create ?(config = default_config) ?controller_id
    ?(metrics = Metrics.create ()) ?(notify = fun _ -> ()) net =
  {
    net;
    from = controller_id;
    cfg = config;
    metrics;
    notify;
    shadows = Hashtbl.create 16;
    states = Hashtbl.create 16;
    probe_at = Hashtbl.create 8;
    queue = [];
    batch = None;
    next_barrier_xid = barrier_xid_base;
    n_degraded = 0;
  }

let config t = t.cfg
let now t = Clock.now (Net.clock t.net)

let health t sid =
  match Hashtbl.find_opt t.states sid with Some h -> h | None -> Healthy

let is_degraded t sid = health t sid = Degraded
let pending_count t = List.length t.queue
let shadow t sid = Hashtbl.find_opt t.shadows sid
let retransmits t = Metrics.get t.metrics Metrics.retransmits
let acks t = Metrics.get t.metrics Metrics.barrier_acks
let resyncs t = Metrics.get t.metrics Metrics.resyncs
let resynced_rules t = Metrics.get t.metrics Metrics.resynced_rules
let degraded_count t = t.n_degraded

let fresh_barrier_xid t =
  let x = t.next_barrier_xid in
  t.next_barrier_xid <- t.next_barrier_xid + 1;
  x

let shadow_of t sid =
  match Hashtbl.find_opt t.shadows sid with
  | Some table -> table
  | None ->
      let table = Flow_table.create () in
      Hashtbl.replace t.shadows sid table;
      table

(* Mirror of Sw.apply_flow_mod on the intent table: what the switch's
   table will hold once this message is (eventually) delivered. *)
let record_intent t sid (msg : Message.t) =
  match msg.payload with
  | Message.Flow_mod fm -> (
      let table = shadow_of t sid in
      let entry () = Flow_entry.of_flow_mod ~now:(now t) fm in
      match fm.command with
      | Message.Add -> Flow_table.add table (entry ())
      | Message.Modify | Message.Modify_strict ->
          let strict = fm.command = Message.Modify_strict in
          let hit =
            Flow_table.modify table ~strict fm.pattern ~priority:fm.priority
              fm.actions
          in
          if not hit then Flow_table.add table (entry ())
      | Message.Delete | Message.Delete_strict ->
          let strict = fm.command = Message.Delete_strict in
          ignore
            (Flow_table.delete table ~strict ?out_port:fm.out_port fm.pattern
               ~priority:fm.priority))
  | _ -> ()

let acked_synchronously xid replies =
  List.exists
    (fun (r : Message.t) -> r.payload = Message.Barrier_reply && r.xid = xid)
    replies

(* A barrier reply alone only proves the channel is alive: the flow-mod
   ahead of it may have been dropped while the barrier got through. The
   reply's real meaning — "everything delivered before this barrier has
   been processed" — lets the controller check the switch's per-xid
   receive record and acknowledge selectively. *)
let delivered t sid (msg : Message.t) =
  (not (Message.is_state_altering msg.payload))
  || (try Netsim.Sw.has_seen_xid (Net.switch t.net sid) msg.xid
      with Not_found -> false)

(* Chase one transmitted state-altering message with a barrier. Returns
   [true] when the barrier reply came back synchronously. *)
let barrier_probe t sid =
  let xid = fresh_barrier_xid t in
  let replies = Net.send ?from:t.from t.net sid (Message.message ~xid Message.Barrier_request) in
  (xid, acked_synchronously xid replies)

(* Forward declaration closing the ack -> transmit-next-head cycle:
   bound to the real drain step after [retransmit] is defined. *)
let ack_drain : (t -> Types.switch_id -> unit) ref = ref (fun _ _ -> ())

let ack t p =
  t.queue <- List.filter (fun q -> q != p) t.queue;
  Metrics.bump t.metrics Metrics.barrier_acks;
  t.notify (Obs.Hub.Acked { sw = p.p_sid; xid = p.p_msg.Message.xid });
  (* Ack-clocked drain: the ack that frees this switch's head-of-line
     slot immediately transmits its next held-back message, so a burst
     (a resync, an intent install) drains at round-trip rate rather than
     one message per runtime tick. *)
  !ack_drain t p.p_sid

let has_pending t sid = List.exists (fun p -> p.p_sid = sid) t.queue

(* The queue is kept in FIFO order; transmitted entries wait
   [base_timeout] before their first retransmission, held-back entries
   become eligible the moment they reach the head of their switch's
   line. *)
let enqueue t sid msg ~sent barrier_xid =
  t.queue <-
    t.queue
    @ [
        {
          p_sid = sid;
          p_msg = msg;
          p_sent = sent;
          p_barrier_xid = barrier_xid;
          p_attempts = 0;
          p_next_at = (now t +. if sent then backoff_delay t.cfg 0 else 0.);
        };
      ]

(* May the per-message barrier chase for this switch be deferred to the
   end of the current batch? Only when the channel consumes no random
   draws and cannot reorder, drop or delay — i.e. the verdict for every
   message on it is "delivered now, deterministically". On such a channel
   the skipped barriers are invisible: no RNG state advances, no pending
   entry is created, and the deferred flow-mods are already on the switch
   (verified per message via [delivered]). Any fault configuration at all
   sends the message down the exact sequential protocol instead, byte for
   byte, RNG draw for RNG draw. *)
let channel_safe t sid =
  match Net.channel t.net sid with
  | exception Not_found -> false
  | ch ->
      (not (Netsim.Channel.partitioned ch))
      &&
      let c = Netsim.Channel.config ch in
      c.Netsim.Channel.loss = 0.
      && c.Netsim.Channel.reply_loss = 0.
      && c.Netsim.Channel.duplicate = 0.
      && c.Netsim.Channel.delay = Netsim.Channel.No_delay

let send t sid (msg : Message.t) =
  record_intent t sid msg;
  if is_degraded t sid then []
  else if t.cfg.enabled && Message.is_state_altering msg.payload then
    if has_pending t sid then begin
      (* Head-of-line blocking on purpose: transmitting now could land
         before the unacknowledged head's retransmission and reorder
         state changes. *)
      enqueue t sid msg ~sent:false 0;
      t.notify (Obs.Hub.Queued { sw = sid; xid = msg.Message.xid });
      []
    end
    else begin
      let replies = Net.send ?from:t.from t.net sid msg in
      t.notify (Obs.Hub.Sent { sw = sid; xid = msg.Message.xid });
      (match t.batch with
      | Some b when channel_safe t sid && delivered t sid msg ->
          (* Coalesce: the message is verified on the switch; one barrier
             at [end_batch] acknowledges it together with every other
             deferred message for this switch. Not enqueued as pending, so
             later sends in the batch keep transmitting immediately —
             exactly as they would after a synchronous ack. *)
          b.deferred <- (sid, msg) :: b.deferred
      | Some _ | None -> (
          let barrier_xid, acked = barrier_probe t sid in
          if acked && delivered t sid msg then begin
            Metrics.bump t.metrics Metrics.barrier_acks;
            t.notify (Obs.Hub.Acked { sw = sid; xid = msg.Message.xid })
          end
          else enqueue t sid msg ~sent:true barrier_xid));
      replies
    end
  else Net.send ?from:t.from t.net sid msg

let begin_batch t = if t.batch = None then t.batch <- Some { deferred = [] }

let end_batch t =
  match t.batch with
  | None -> ()
  | Some b ->
      t.batch <- None;
      let deferred = List.rev b.deferred in
      (* One barrier per touched switch, in ascending switch order —
         deterministic regardless of how sends interleaved. *)
      let sids =
        List.sort_uniq compare (List.map (fun (sid, _) -> sid) deferred)
      in
      List.iter
        (fun sid ->
          let msgs =
            List.filter_map
              (fun (s, m) -> if s = sid then Some m else None)
              deferred
          in
          let barrier_xid, acked = barrier_probe t sid in
          List.iter
            (fun (msg : Message.t) ->
              if acked && delivered t sid msg then begin
                Metrics.bump t.metrics Metrics.barrier_acks;
                t.notify (Obs.Hub.Acked { sw = sid; xid = msg.Message.xid })
              end
              else
                (* Defensive: the channel was declared safe when the
                   message went out, so this means the switch itself went
                   away mid-batch. Hand the message to the ordinary
                   retransmission machinery. *)
                enqueue t sid msg ~sent:true barrier_xid)
            msgs)
        sids

let probe_interval t = t.cfg.base_timeout *. 8.

let degrade t sid =
  if not (is_degraded t sid) then begin
    Hashtbl.replace t.states sid Degraded;
    Hashtbl.replace t.probe_at sid (now t +. probe_interval t);
    t.n_degraded <- t.n_degraded + 1;
    t.notify (Obs.Hub.Degraded { sw = sid });
    (* Nothing queued for this switch can succeed any more; the shadow
       table keeps the intent and resync will replay it on reconnect. *)
    t.queue <- List.filter (fun p -> p.p_sid <> sid) t.queue
  end

(* (Re)transmit the head-of-line message for its switch. The first
   transmission of a held-back message is free; retransmissions burn the
   retry budget. *)
let retransmit t p =
  if p.p_sent && p.p_attempts >= t.cfg.max_retries then degrade t p.p_sid
  else begin
    if p.p_sent then begin
      p.p_attempts <- p.p_attempts + 1;
      Metrics.bump t.metrics Metrics.retransmits;
      t.notify
        (Obs.Hub.Retransmitted
           {
             sw = p.p_sid;
             xid = p.p_msg.Message.xid;
             attempt = p.p_attempts;
           })
    end
    else begin
      p.p_sent <- true;
      t.notify (Obs.Hub.Sent { sw = p.p_sid; xid = p.p_msg.Message.xid })
    end;
    (* Same xid as the original: if the first copy did arrive, the switch
       suppresses the duplicate and only the barrier matters. *)
    ignore (Net.send ?from:t.from t.net p.p_sid p.p_msg);
    let barrier_xid, acked = barrier_probe t p.p_sid in
    if acked && delivered t p.p_sid p.p_msg then ack t p
    else begin
      p.p_barrier_xid <- barrier_xid;
      p.p_next_at <- now t +. backoff_delay t.cfg p.p_attempts
    end
  end

let () =
  ack_drain :=
    fun t sid ->
      if not (is_degraded t sid) then
        match List.find_opt (fun q -> q.p_sid = sid) t.queue with
        | Some head when not head.p_sent -> retransmit t head
        | Some _ | None -> ()

(* A reconnected switch starts from an empty table (reboot semantics).
   Replay the intended rule set so the data plane converges without
   waiting for fresh traffic to re-trigger the applications. *)
let resync t sid =
  t.queue <- List.filter (fun p -> p.p_sid <> sid) t.queue;
  Hashtbl.remove t.states sid;
  Hashtbl.remove t.probe_at sid;
  match Hashtbl.find_opt t.shadows sid with
  | None -> ()
  | Some table ->
      let entries = Flow_table.entries table in
      if entries <> [] then begin
        Metrics.bump t.metrics Metrics.resyncs;
        Metrics.bump_by t.metrics Metrics.resynced_rules (List.length entries);
        t.notify (Obs.Hub.Resynced { sw = sid; rules = List.length entries });
        List.iter
          (fun (e : Flow_entry.t) ->
            let fm =
              Message.flow_add ~cookie:e.cookie ~idle_timeout:e.idle_timeout
                ~hard_timeout:e.hard_timeout ~priority:e.priority
                ~notify_when_removed:e.notify_when_removed e.pattern e.actions
            in
            ignore
              (send t sid
                 (Message.message ~xid:(fresh_barrier_xid t)
                    (Message.Flow_mod fm))))
          entries
      end

(* Circuit-breaker half-open state: a degraded switch is probed with a
   bare barrier now and then; the first synchronous reply proves the
   channel works again and triggers a full resync. A probe that reaches
   no live switch just comes back as an error (or nothing) and the
   breaker stays open. *)
let probe_degraded t =
  let due =
    Hashtbl.fold
      (fun sid at acc -> if at <= now t then sid :: acc else acc)
      t.probe_at []
  in
  List.iter
    (fun sid ->
      let _, acked = barrier_probe t sid in
      if acked then resync t sid
      else Hashtbl.replace t.probe_at sid (now t +. probe_interval t))
    (List.sort compare due)

(* The oldest pending entry per switch, in queue order. *)
let heads t =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun p ->
      if Hashtbl.mem seen p.p_sid then false
      else begin
        Hashtbl.replace seen p.p_sid ();
        true
      end)
    t.queue

let tick t =
  if t.cfg.enabled then begin
    let due = List.filter (fun p -> p.p_next_at <= now t) (heads t) in
    List.iter (fun p -> if List.memq p t.queue then retransmit t p) due;
    probe_degraded t
  end

let observe t = function
  | Net.From_switch (sid, { Message.payload = Message.Barrier_reply; xid }) ->
      (* A delayed or retransmission-triggered barrier reply. *)
      ignore sid;
      (match List.find_opt (fun p -> p.p_barrier_xid = xid) t.queue with
      | Some p when delivered t p.p_sid p.p_msg -> ack t p
      | Some _ | None -> ())
  | Net.Switch_connected (sid, _) -> if t.cfg.enabled then resync t sid
  | Net.From_switch _ | Net.Switch_disconnected _ | Net.Delivered _ -> ()

(* Shadow tables travel with replica state transfer: a fail-over
   controller that starts from empty shadows would count every rule the
   old leader installed as "extra" divergence and could never resync a
   rebooted switch. Export/import move the full intent, entry by entry. *)
let export_shadows t =
  Hashtbl.fold
    (fun sid table acc -> (sid, Flow_table.entries table) :: acc)
    t.shadows []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let import_shadows t shadows =
  Hashtbl.reset t.shadows;
  List.iter
    (fun (sid, entries) ->
      let table = shadow_of t sid in
      List.iter (fun e -> Flow_table.add table e) entries)
    shadows

(* The un-acked queue also travels with replica state transfer. The
   shipper's dispatch of a log entry and the wire delivery of the
   commands it produced are separated by head-of-line blocking and
   retransmission backoff: a command can sit in this queue long after
   its entry is committed, snapshotted, and out of the re-dispatch
   window. A successor that dropped the queue would silently lose that
   command forever. Import re-injects each message un-sent, with its
   original xid: if the old copy did reach the switch, per-xid dedup
   suppresses the replay and only the trailing barrier matters. *)
let export_pending t = List.map (fun p -> (p.p_sid, p.p_msg)) t.queue

let import_pending t pending =
  t.queue <- [];
  List.iter (fun (sid, msg) -> enqueue t sid msg ~sent:false 0) pending

let entry_key (e : Flow_entry.t) = (e.pattern, e.priority, e.actions)

let divergence t =
  Hashtbl.fold
    (fun sid table acc ->
      let intended = List.map entry_key (Flow_table.entries table) in
      let actual =
        try
          List.map entry_key
            (Flow_table.entries (Net.switch t.net sid).Netsim.Sw.table)
        with Not_found -> []
      in
      let missing =
        List.filter (fun k -> not (List.mem k actual)) intended
      in
      let extra =
        List.filter (fun k -> not (List.mem k intended)) actual
      in
      acc + List.length missing + List.length extra)
    t.shadows 0
