(* The observability subsystem: tracer nesting discipline (including
   under injected crashes that unwind past open spans), ring-buffer
   wraparound accounting, Chrome-trace JSON round-trips, the hub's
   subscription semantics, the metrics registry, and — as a qcheck
   property — the histogram's quantile bounds. *)

open Netsim
module Event = Controller.Event
module App_sig = Controller.App_sig
module Runtime = Legosdn.Runtime
module Crashpad = Legosdn.Crashpad
module Recovery_policy = Legosdn.Recovery_policy
module Metrics = Legosdn.Metrics

let checkb = T_util.checkb
let checki = T_util.checki

let packet_in src dst =
  Event.Packet_in
    ( 1,
      {
        Openflow.Message.pi_buffer_id = None;
        pi_in_port = 100;
        pi_reason = Openflow.Message.No_match;
        pi_packet = Openflow.Packet.tcp ~src_host:src ~dst_host:dst ();
      } )

(* ---------------- tracer: nesting and wraparound ---------------- *)

let fresh_tracer ?(capacity = 1024) () =
  let vt = ref 0. in
  Obs.Tracer.create ~capacity
    ~now:(fun () ->
      vt := !vt +. 0.001;
      !vt)
    ()

let test_nesting_and_autoclose () =
  let tr = fresh_tracer () in
  let root = Obs.Tracer.start tr Obs.Span.Event_root in
  let child = Obs.Tracer.start tr Obs.Span.App_handle in
  let _grandchild = Obs.Tracer.start tr Obs.Span.Txn_commit in
  checki "three open" 3 (Obs.Tracer.open_count tr);
  (* Finishing the root must close the abandoned child and grandchild —
     the unwound-past-open-spans case a crash produces. *)
  Obs.Tracer.finish tr root;
  checki "all closed" 0 (Obs.Tracer.open_count tr);
  let spans = Obs.Tracer.spans tr in
  checki "three recorded" 3 (List.length spans);
  (match Obs.Export.validate spans with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace invalid: %s" e);
  let by_id id = List.find (fun (s : Obs.Span.t) -> s.id = id) spans in
  checki "child's parent is root" root (by_id child).Obs.Span.parent;
  let r = by_id root and c = by_id child in
  checkb "child wall interval inside root" true
    (c.Obs.Span.t0 >= r.Obs.Span.t0 && c.Obs.Span.t1 <= r.Obs.Span.t1);
  (* Unknown and double finishes are ignored. *)
  Obs.Tracer.finish tr root;
  Obs.Tracer.finish tr 9999;
  checki "still three" 3 (List.length (Obs.Tracer.spans tr))

let test_ring_wraparound () =
  let tr = fresh_tracer ~capacity:8 () in
  for i = 1 to 20 do
    Obs.Tracer.instant tr
      ~attrs:[ ("i", string_of_int i) ]
      Obs.Span.Inv_cache_hit
  done;
  checki "recorded counts evictions too" 20 (Obs.Tracer.recorded tr);
  checki "dropped" 12 (Obs.Tracer.dropped tr);
  let spans = Obs.Tracer.spans tr in
  checki "ring holds capacity" 8 (List.length spans);
  (* Oldest-first, and the survivors are exactly the last eight. *)
  List.iteri
    (fun idx (s : Obs.Span.t) ->
      checki "survivor order" (13 + idx) (int_of_string (List.assoc "i" s.attrs)))
    spans;
  (match Obs.Export.validate spans with
  | Ok () -> ()
  | Error e -> Alcotest.failf "wrapped trace invalid: %s" e);
  Obs.Tracer.clear tr;
  checki "clear empties the ring" 0 (List.length (Obs.Tracer.spans tr))

(* ---------------- tracer under an injected crash ---------------- *)

let crasher : App_sig.app =
  App_sig.app
  (module struct
    type state = int

    let name = "crasher"
    let subscriptions = [ Event.K_packet_in ]
    let init () = 0

    let handle _ st = function
      | Event.Packet_in _ ->
          let cmds =
            List.init 4 (fun i ->
                Controller.Command.install 1
                  (Openflow.Ofp_match.make ~tp_src:(i + 1) ())
                  [ Openflow.Action.Output 1 ])
          in
          raise (App_sig.Crash_with_partial cmds)
      | _ -> (st, [])
  end)

let absolute_config =
  {
    Runtime.default_config with
    Runtime.crashpad =
      {
        Crashpad.default_config with
        Crashpad.policy = Recovery_policy.uniform Recovery_policy.Absolute;
      };
  }

let test_spans_under_injected_crash () =
  let net =
    Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 2)
  in
  let rt = Runtime.create ~config:absolute_config net [ crasher ] in
  Runtime.step rt;
  let tracer =
    Obs.Tracer.create ~capacity:1024
      ~now:(fun () -> Clock.now (Net.clock net))
      ()
  in
  Runtime.set_tracer rt tracer;
  Runtime.dispatch_event rt (packet_in 1 2);
  (* The crash unwound through the app-handle span; nothing may leak. *)
  checki "no open spans after crash" 0 (Obs.Tracer.open_count tracer);
  let spans = Obs.Tracer.spans tracer in
  (match Obs.Export.validate spans with
  | Ok () -> ()
  | Error e -> Alcotest.failf "crash trace invalid: %s" e);
  let kinds = Obs.Export.kinds spans in
  checkb "event span" true (List.mem Obs.Span.Event_root kinds);
  checkb "app span" true (List.mem Obs.Span.App_handle kinds);
  checkb "rollback span" true (List.mem Obs.Span.Txn_rollback kinds);
  checkb "recovery span" true (List.mem Obs.Span.Recovery kinds);
  (* The partial commands were really rolled back. *)
  let rb =
    List.find (fun (s : Obs.Span.t) -> s.kind = Obs.Span.Txn_rollback) spans
  in
  checkb "rollback undid the partial writes" true
    (int_of_string (List.assoc "undos" rb.Obs.Span.attrs) > 0)

(* ---------------- Chrome-trace JSON round-trip ---------------- *)

let test_chrome_roundtrip () =
  let tr = fresh_tracer () in
  Obs.Tracer.with_span tr
    ~attrs:[ ("kind", "packet_in"); ("quote", "a\"b\\c"); ("nl", "x\ny") ]
    Obs.Span.Event_root
    (fun () ->
      Obs.Tracer.instant tr ~attrs:[ ("sw", "3") ] Obs.Span.Delivery;
      Obs.Tracer.with_span tr Obs.Span.App_handle (fun () -> ()));
  let spans = Obs.Tracer.spans tr in
  let json = Obs.Export.to_chrome spans in
  (match Obs.Export.of_chrome json with
  | Error e -> Alcotest.failf "re-import failed: %s" e
  | Ok spans' ->
      checkb "spans survive the round-trip" true (spans = spans');
      Alcotest.(check string)
        "bytes survive the round-trip" json
        (Obs.Export.to_chrome spans'));
  (* And through a file, the way --trace-out writes it. *)
  let path = Filename.temp_file "t_obs" ".trace.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Export.save path spans;
      match Obs.Export.load path with
      | Ok spans' -> checkb "file round-trip" true (spans = spans')
      | Error e -> Alcotest.failf "load failed: %s" e)

let test_chrome_rejects_garbage () =
  checkb "not json" true (Result.is_error (Obs.Export.of_chrome "not json"));
  checkb "wrong shape" true
    (Result.is_error (Obs.Export.of_chrome "{\"traceEvents\": 3}"))

(* ---------------- the hub ---------------- *)

let test_hub_subscribe_order_and_unsubscribe () =
  let hub = Obs.Hub.create () in
  let log = ref [] in
  let sub tag = Obs.Hub.subscribe hub (fun _ -> log := tag :: !log) in
  let a = sub "a" in
  let b = sub "b" in
  let c = sub "c" in
  checki "three subscribers" 3 (Obs.Hub.subscriber_count hub);
  Obs.Hub.emit hub (Obs.Hub.Delivery (Obs.Hub.Degraded { sw = 1 }));
  Alcotest.(check (list string))
    "subscription order" [ "a"; "b"; "c" ] (List.rev !log);
  Obs.Hub.unsubscribe hub b;
  log := [];
  Obs.Hub.emit hub (Obs.Hub.Delivery (Obs.Hub.Degraded { sw = 1 }));
  Alcotest.(check (list string)) "b gone" [ "a"; "c" ] (List.rev !log);
  Obs.Hub.unsubscribe hub b;
  (* idempotent *)
  Obs.Hub.unsubscribe hub a;
  Obs.Hub.unsubscribe hub c;
  checki "all gone" 0 (Obs.Hub.subscriber_count hub)

(* What the deprecated [Runtime.set_event_tap] wrapper used to provide,
   done the one remaining way: a hub subscription filtered to
   [Dispatched] events sees the dispatch stream exactly as the sandboxes
   do, and unsubscribing silences it. *)
let test_runtime_dispatch_stream_via_hub () =
  let net =
    Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 2)
  in
  let rt = Runtime.create net [ App_sig.app (module Apps.Hub) ] in
  Runtime.step rt;
  let tapped = ref 0 in
  let tap =
    Obs.Hub.subscribe (Runtime.hub rt) (function
      | Obs.Hub.Dispatched _ -> incr tapped
      | Obs.Hub.Inv_cache _ | Obs.Hub.Delivery _ -> ())
  in
  Runtime.dispatch_event rt (packet_in 1 2);
  checki "subscriber saw the dispatch" 1 !tapped;
  Obs.Hub.unsubscribe (Runtime.hub rt) tap;
  Runtime.dispatch_event rt (packet_in 2 1);
  checki "unsubscribed tap is silent" 1 !tapped

(* ---------------- the metrics registry ---------------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "my.counter" in
  Metrics.incr c;
  Metrics.add c 4;
  checki "counter value" 5 (Metrics.value c);
  let c' = Metrics.counter m "my.counter" in
  Metrics.incr c';
  checki "find-or-register shares state" 6 (Metrics.value c);
  (match Metrics.counter m "events" with
  | c -> checkb "legacy counter reachable by name" true (Metrics.value c = 0));
  Metrics.incr_events m;
  checki "legacy incr and registry agree" 1 (Metrics.events m);
  (match Metrics.find m "events" with
  | Some (Metrics.Counter c) -> checki "via find" 1 (Metrics.value c)
  | _ -> Alcotest.fail "events not registered as a counter");
  let g = Metrics.gauge m "my.gauge" in
  Metrics.set g 2.5;
  checkb "gauge" true (Metrics.gauge_value g = 2.5);
  checkb "type clash raises" true
    (match Metrics.gauge m "my.counter" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let h = Obs.Histogram.create () in
  Obs.Histogram.observe h 1e-6;
  Metrics.attach_histogram m "span.event" h;
  (match Metrics.find m "span.event" with
  | Some (Metrics.Histogram h') ->
      checki "attached histogram is shared" 1 (Obs.Histogram.count h')
  | _ -> Alcotest.fail "span.event not registered as a histogram");
  (* Registration order: pre-registered legacy counters first, then ours. *)
  (match Metrics.names m with
  | "events" :: _ -> ()
  | other ->
      Alcotest.failf "expected events first, got %s"
        (String.concat "," other));
  checkb "our names present, in order" true
    (let names = Metrics.names m in
     let pos x = Option.get (List.find_index (( = ) x) names) in
     pos "my.counter" < pos "my.gauge" && pos "my.gauge" < pos "span.event")

let test_metrics_pp_format_unchanged () =
  let m = Metrics.create () in
  Metrics.incr_events m;
  Metrics.incr_crash m;
  let s = Format.asprintf "%a" Metrics.pp m in
  checkb "summary line starts as before" true
    (String.length s >= 8 && String.sub s 0 8 = "events=1");
  checkb "crash counter in the line" true
    (let re = "crashes=1" in
     let n = String.length s and k = String.length re in
     let rec scan i = i + k <= n && (String.sub s i k = re || scan (i + 1)) in
     scan 0)

(* Reading a metric never registers one: the summary line and every flat
   reader go through handles created with the registry. *)
let test_metrics_reads_register_nothing () =
  let m = Metrics.create () in
  let before = Metrics.names m in
  ignore (Format.asprintf "%a" Metrics.pp m);
  List.iter
    (fun read -> ignore (read m))
    Metrics.
      [
        events; crashes; hangs; byzantine_blocked; ignored; transformed;
        disabled; replayed; dropped_in_replay; resource_breaches; quarantined;
        suppressed; retransmits; barrier_acks; resyncs; resynced_rules;
        unreachable; policy_compromises; policy_rejected; policy_reconciles;
        nv_events; nv_masked; nv_outvoted; nv_variant_crashes; nv_no_majority;
        nv_resyncs; nv_resync_bytes; nv_sheds; nv_grows; inv_trace_hits;
        inv_trace_misses; inv_invalidations; inv_recaptures;
        inv_memoized_checks; inv_evictions; inv_cache_bytes; checkpoints;
        ckpt_restores; ckpt_chunk_hits; ckpt_chunk_misses; ckpt_bytes_deduped;
        ckpt_bytes_written; counter_cache_evictions;
      ];
  Alcotest.(check (list string)) "names unchanged" before (Metrics.names m)

(* ---------------- histogram quantile bounds (qcheck) ---------------- *)

let prop_quantile_bounds =
  QCheck2.Test.make ~name:"histogram quantiles bound the true sample quantiles"
    ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 200) (float_range 1e-8 10.0))
        (float_range 0.01 1.0))
    (fun (samples, q) ->
      let h = Obs.Histogram.create () in
      List.iter (Obs.Histogram.observe h) samples;
      let bound = Obs.Histogram.quantile h q in
      let sorted = List.sort compare samples in
      let n = List.length sorted in
      let rank = max 1 (int_of_float (Float.ceil (q *. float n))) in
      let true_q = List.nth sorted (rank - 1) in
      (* Upper bound on the true quantile, and at most one factor-2 bucket
         above it (samples sit above min_bound by construction). *)
      true_q <= bound && bound <= (2.0 *. true_q) +. 1e-12)

let suite =
  [
    Alcotest.test_case "nesting and auto-close" `Quick
      test_nesting_and_autoclose;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "spans under injected crash" `Quick
      test_spans_under_injected_crash;
    Alcotest.test_case "chrome-trace round-trip" `Quick test_chrome_roundtrip;
    Alcotest.test_case "chrome-trace rejects garbage" `Quick
      test_chrome_rejects_garbage;
    Alcotest.test_case "hub order and unsubscribe" `Quick
      test_hub_subscribe_order_and_unsubscribe;
    Alcotest.test_case "runtime dispatch stream via hub" `Quick
      test_runtime_dispatch_stream_via_hub;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "metrics pp format unchanged" `Quick
      test_metrics_pp_format_unchanged;
    Alcotest.test_case "metric reads register nothing" `Quick
      test_metrics_reads_register_nothing;
    QCheck_alcotest.to_alcotest prop_quantile_bounds;
  ]
