(* One run of one workload, in a process of its own: set up, warm up,
   then the closed-loop measured phase. The result crosses back to the
   launcher with [Marshal], so it holds only plain data. *)

open Legosdn
module Net = Netsim.Net
module Clock = Netsim.Clock
module Span = Obs.Span

type result = {
  setup_s : float;
  loop_s : float;  (** Wall time of the whole measured loop. *)
  events : int;  (** Events dispatched in the measured loop. *)
  event_lat : float array;  (** Seconds, ascending. *)
  reaction : float array;
  recovery : float array;
  heap_peak_mb : float;
  packets : int;  (** Packets injected in the measured loop. *)
  failed : int;  (** Of those, packets no copy of which reached its host. *)
  counts : (string * int) list;
      (** Exact virtual-time counts: equal across runs of one seed. *)
  layers : (string * float * string) list;
      (** Per-layer figures with their units; traced runs only. *)
  errors : string list;  (** Failed correctness checks. *)
}

(* Counters are read from the registry by name, so renamed or lazily
   registered counters cost the benchmark nothing. *)
let registry_counts m =
  List.filter_map
    (fun name ->
      match Metrics.find m name with
      | Some (Metrics.Counter c) -> Some ("metrics." ^ name, Metrics.value c)
      | _ -> None)
    (Metrics.names m)

(* An event during which one of these advanced is a recovery. *)
let failure_counters =
  [
    "crashes";
    "hangs";
    "byzantine";
    "unreachable";
    "nversion_outvoted";
    "nversion_variant_crashes";
  ]

let flow_entries net =
  List.fold_left
    (fun acc sid ->
      acc + Netsim.Flow_table.size (Net.switch net sid).Netsim.Sw.table)
    0
    (Netsim.Topology.switches (Net.topology net))

(* Event latency: from one [Dispatched] notification to the next, or to
   the end of the runtime call that dispatched it. One clock read and one
   failure-counter read per event, and no spans, so untraced runs stay
   untraced. *)
type timer = {
  mutable start : float;  (** Negative when no event is open. *)
  mutable failures_at_start : int;
  lat : Probe.samples;
  rec_lat : Probe.samples;
}

let close_event tm ~now ~failures =
  if tm.start >= 0. then begin
    let d = now -. tm.start in
    Probe.push tm.lat d;
    if failures > tm.failures_at_start then Probe.push tm.rec_lat d;
    tm.start <- -1.
  end

(* The failure counters' sum. Handles are cached once registered; until
   then a counter reads 0. *)
let failure_reader m =
  let handles = Array.make (List.length failure_counters) None in
  let names = Array.of_list failure_counters in
  fun () ->
    let sum = ref 0 in
    Array.iteri
      (fun i h ->
        match h with
        | Some c -> sum := !sum + Metrics.value c
        | None -> (
            match Metrics.find m names.(i) with
            | Some (Metrics.Counter c) ->
                handles.(i) <- Some c;
                sum := !sum + Metrics.value c
            | _ -> ()))
      handles;
    !sum

let kind_layer =
  let names =
    List.map (fun k -> (k, "span." ^ Span.kind_name k)) Span.all_kinds
  in
  fun k -> List.assq k names

(* Spans per drain stay below 3k on every workload; the ring is sized so
   one input can never wrap it, and a wrap fails the run anyway. *)
let tracer_capacity = 1 lsl 14

(* The traced run's books: self time and span count per layer, inclusive
   time of the benchmark's runtime calls, and reliable-layer sends. *)
type books = {
  self : (string, float) Hashtbl.t;
  spans : (string, float) Hashtbl.t;
  inclusive : (string, float) Hashtbl.t;
  mutable sent : int;
  mutable queued : int;
  mutable dropped : int;
  mutable open_at_drain : int;
}

let add tbl key v =
  Hashtbl.replace tbl key
    (v +. Option.value (Hashtbl.find_opt tbl key) ~default:0.)

let drain books tracer =
  books.open_at_drain <- books.open_at_drain + Obs.Tracer.open_count tracer;
  books.dropped <- books.dropped + Obs.Tracer.dropped tracer;
  let runtime_spans = Obs.Tracer.spans tracer in
  Obs.Tracer.clear tracer;
  let bench = Probe.drain () in
  List.iter
    (fun (s : Arith.span) ->
      add books.spans s.layer 1.;
      add books.inclusive s.layer (s.t1 -. s.t0))
    bench;
  (* Instants cover no time; counting them is all they need. *)
  let timed =
    List.filter_map
      (fun (s : Span.t) ->
        let layer = kind_layer s.kind in
        add books.spans layer 1.;
        if Span.is_instant s then None
        else
          Some
            { Arith.layer; t0 = s.t0; t1 = s.t1; id = s.id; parent = s.parent })
      runtime_spans
  in
  List.iter
    (fun (layer, v) -> add books.self layer v)
    (Arith.self_times (bench @ timed))

let run (w : Workloads.t) ~seed ~units ~traced =
  let t_setup = Probe.now () in
  let topo = Netsim.Topo_gen.fat_tree w.k in
  let clock = Clock.create () in
  let net = Net.create clock topo in
  let apps = w.apps ~seed in
  let apps = if traced then List.map Probe.wrap_app apps else apps in
  let rt = Runtime.create ~config:w.config net apps in
  w.warm net rt;
  let setup_s = Probe.now () -. t_setup in
  let setup_shed = Runtime.events_shed rt in
  let inputs = w.inputs ~seed topo ~units in
  let m = Runtime.metrics rt in
  let failures = failure_reader m in
  let tm =
    {
      start = -1.;
      failures_at_start = 0;
      lat = Probe.samples ();
      rec_lat = Probe.samples ();
    }
  in
  let books =
    {
      self = Hashtbl.create 64;
      spans = Hashtbl.create 64;
      inclusive = Hashtbl.create 8;
      sent = 0;
      queued = 0;
      dropped = 0;
      open_at_drain = 0;
    }
  in
  ignore
    (Obs.Hub.subscribe (Runtime.hub rt) (function
      | Obs.Hub.Dispatched _ ->
          let now = Probe.now () and failures = failures () in
          close_event tm ~now ~failures;
          tm.start <- now;
          tm.failures_at_start <- failures
      | Obs.Hub.Delivery (Obs.Hub.Sent _) -> books.sent <- books.sent + 1
      | Obs.Hub.Delivery (Obs.Hub.Queued _) -> books.queued <- books.queued + 1
      | _ -> ()));
  (* The runtime's spans and the benchmark's share one monotonic clock;
     both are drained after every input, when no span is open. *)
  let tracer =
    if traced then
      Obs.Tracer.create ~capacity:tracer_capacity ~wall:Probe.now
        ~now:(fun () -> Clock.now clock)
        ()
    else Obs.Tracer.noop
  in
  Runtime.set_tracer rt tracer;
  Probe.tracing := traced;
  let netlog f = match Runtime.netlog rt with Some nl -> f nl | None -> 0 in
  let reliable f = match Runtime.reliable rt with Some r -> f r | None -> 0 in
  let snapshot_counts () =
    let st = Net.stats net in
    let inc = Invariants.Incremental.stats (Runtime.incremental rt) in
    [
      ("events", Runtime.events_processed rt);
      ("shed", Runtime.events_shed rt);
      ("packet_ins", st.Net.packet_ins);
      ("delivered_to_dst", st.Net.delivered_to_dst);
      ("delivered", st.Net.delivered);
      ("blackholed", st.Net.blackholed);
      ("looped", st.Net.looped);
      ("tickets", Ticket.count (Runtime.ticket_store rt));
      ("netlog.committed", netlog Netlog.committed);
      ("netlog.aborted", netlog Netlog.aborted);
      ("netlog.ops_rolled_back", netlog Netlog.ops_rolled_back);
      ("reliable.retransmits", reliable Reliable.retransmits);
      ("reliable.resyncs", reliable Reliable.resyncs);
      ( "rpc_bytes",
        List.fold_left
          (fun acc b -> acc + Sandbox.rpc_bytes b)
          0 (Runtime.sandboxes rt) );
      ("inv.hits", inc.Invariants.Incremental.hits);
      ("inv.misses", inc.misses);
      ("inv.invalidations", inc.invalidations);
    ]
    @ registry_counts m
  in
  let before = snapshot_counts () in
  let packets = ref 0 and failed = ref 0 and bursts = ref 0 in
  let ticks = ref 0 and faults = ref 0 in
  let reaction = Probe.samples () in
  let call layer f =
    Probe.span layer f;
    close_event tm ~now:(Probe.now ()) ~failures:(failures ())
  in
  let t_loop = Probe.now () in
  Array.iter
    (fun (at, input) ->
      if at > Clock.now clock then Clock.advance_to clock at;
      let events0 = Runtime.events_processed rt in
      let t0 = Probe.now () in
      (match input with
      | Workloads.Burst ps ->
          let delivered0 = (Net.stats net).Net.delivered_to_dst in
          Array.iter
            (fun (h, p) ->
              Probe.span "netsim.inject" (fun () -> Net.inject net h p))
            ps;
          call "runtime.step" (fun () -> Runtime.step rt);
          let n = Array.length ps in
          incr bursts;
          packets := !packets + n;
          failed :=
            !failed
            + Arith.failed_packets ~packets:n
                ~delivered:((Net.stats net).Net.delivered_to_dst - delivered0)
      | Workloads.Tick ->
          incr ticks;
          Probe.span "netsim.tick" (fun () -> Net.tick net);
          call "runtime.tick" (fun () -> Runtime.tick rt);
          call "runtime.step" (fun () -> Runtime.step rt)
      | Workloads.Fault f ->
          incr faults;
          Probe.span "netsim.fault" (fun () -> Net.apply_fault net f);
          call "runtime.step" (fun () -> Runtime.step rt));
      (* Reaction: handing the input over until the controller is quiet. *)
      if Runtime.events_processed rt > events0 then
        Probe.push reaction (Probe.now () -. t0);
      if traced then drain books tracer)
    inputs;
  let loop_s = Probe.now () -. t_loop in
  Probe.tracing := false;
  let after = snapshot_counts () in
  let delta name =
    let get l = Option.value (List.assoc_opt name l) ~default:0 in
    float_of_int (get after - get before)
  in
  let errors = ref [] in
  let check ok msg = if not ok then errors := msg :: !errors in
  List.iter
    (fun b -> check (Sandbox.alive b) ("sandbox not alive: " ^ Sandbox.name b))
    (Runtime.sandboxes rt);
  if w.loop_check then
    check
      (Invariants.Checker.check ~invariants:[ Invariants.Checker.Loop_freedom ]
         (Invariants.Snapshot.of_net net)
      = [])
      "forwarding loop in the final tables";
  if traced then begin
    check (books.dropped = 0)
      (Printf.sprintf "tracer dropped %d spans" books.dropped);
    check (books.open_at_drain = 0) "spans open at a drain point"
  end;
  let entries = flow_entries net in
  {
    setup_s;
    loop_s;
    events = int_of_float (delta "events");
    event_lat = Probe.sorted tm.lat;
    reaction = Probe.sorted reaction;
    recovery = Probe.sorted tm.rec_lat;
    heap_peak_mb =
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1e6;
    packets = !packets;
    failed = !failed;
    counts =
      [
        ("inputs.packets", !packets);
        ("inputs.bursts", !bursts);
        ("inputs.ticks", !ticks);
        ("inputs.faults", !faults);
        ("failed_packets", !failed);
        ("setup_shed", setup_shed);
        ("flow_entries", entries);
      ]
      @ after;
    layers =
      (if traced then
         Layers.rows ~self:books.self ~spans:books.spans
           ~inclusive:books.inclusive ~sent:books.sent ~queued:books.queued
           ~delta
           ~loop_s ~dropped:books.dropped ~setup_shed ~flow_entries:entries
           ~failed_frac:
             (if !packets = 0 then 0.
              else float_of_int !failed /. float_of_int !packets)
       else []);
    errors = List.rev !errors;
  }
