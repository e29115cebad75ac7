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

(* The names the end-to-end benchmark reads counters by, in the order it
   reports them. *)
let counter_names =
  [
    "events"; "crashes"; "hangs"; "byzantine"; "ignored"; "transformed";
    "disabled"; "replayed"; "dropped-in-replay"; "resource-breaches";
    "quarantined"; "suppressed"; "retransmits"; "barrier-acks"; "resyncs";
    "resynced-rules"; "unreachable"; "inv-hits"; "inv-misses";
    "inv-invalidations"; "inv-recaptures"; "inv-memoized"; "inv-evictions";
    "checkpoints"; "ckpt-restores"; "ckpt-chunk-hits"; "ckpt-chunk-misses";
    "ckpt-bytes-deduped"; "ckpt-bytes-written"; "counter-cache-evictions";
    "policy_compromises"; "policy_rejected"; "policy_reconciles";
    "nversion_events"; "nversion_masked"; "nversion_outvoted";
    "nversion_variant_crashes"; "nversion_no_majority"; "nversion_resyncs";
    "nversion_resync_bytes"; "nversion_sheds"; "nversion_grows";
  ]

(* Counter [i] of [Metrics.all] holds [i + 1]. *)
let numbered_store () =
  let m = Metrics.create () in
  List.iteri (fun i s -> Metrics.bump_by m s (i + 1)) Metrics.all;
  m

let test_metrics_registry () =
  let m = Metrics.create () in
  Metrics.bump m Metrics.crashes;
  Metrics.bump_by m Metrics.crashes 4;
  checki "bump and bump_by" 5 (Metrics.get m Metrics.crashes);
  checki "stores are independent" 0
    (Metrics.get (Metrics.create ()) Metrics.crashes);
  Alcotest.(check (list string))
    "names, in declaration order" counter_names (Metrics.names m);
  (* [find] by name reaches the same slot as the stat at that position. *)
  let m = numbered_store () in
  List.iteri
    (fun i name ->
      match Metrics.find m name with
      | Some (Metrics.Counter c) -> checki name (i + 1) (Metrics.value c)
      | None -> Alcotest.failf "%s not found" name)
    counter_names;
  checkb "unknown name" true (Metrics.find m "no-such-counter" = None)

let test_metrics_pp_format_unchanged () =
  let m = Metrics.create () in
  Metrics.bump m Metrics.events;
  Metrics.bump m Metrics.crashes;
  let s = Format.asprintf "%a" Metrics.pp m in
  checkb "summary line starts as before" true
    (String.length s >= 8 && String.sub s 0 8 = "events=1");
  checkb "crash counter in the line" true
    (let re = "crashes=1" in
     let n = String.length s and k = String.length re in
     let rec scan i = i + k <= n && (String.sub s i k = re || scan (i + 1)) in
     scan 0);
  Alcotest.(check string)
    "every counter in its place"
    "events=1 crashes=2 hangs=3 byzantine=4\n\
     ignored=5 transformed=6 disabled=7\n\
     replayed=8 dropped-in-replay=9 resource-breaches=10\n\
     quarantined=11 suppressed=12\n\
     retransmits=13 barrier-acks=14 resyncs=15 resynced-rules=16 \
     unreachable=17\n\
     inv-cache hits=18 misses=19 invalidations=20 recaptures=21 \
     memoized=22 evictions=23\n\
     checkpoints=24 ckpt-restores=25 ckpt-chunk hits=26 misses=27 \
     deduped=28 written=29 cc-evictions=30\n\
     nversion events=34 masked=35 outvoted=36 variant-crashes=37 \
     no-majority=38 nv-resyncs=39 nv-resync-bytes=40 sheds=41 grows=42"
    (Format.asprintf "%a" Metrics.pp (numbered_store ()))

(* Reading a metric never registers one. *)
let test_metrics_reads_register_nothing () =
  let m = Metrics.create () in
  let before = Metrics.names m in
  ignore (Format.asprintf "%a" Metrics.pp m);
  List.iter (fun s -> ignore (Metrics.get m s)) Metrics.all;
  List.iter (fun name -> ignore (Metrics.find m name)) ("unknown" :: before);
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
