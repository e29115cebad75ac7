type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of Obs.Histogram.t

type app_outage = {
  mutable accumulated : float;
  mutable down_since : float option;
}

type t = {
  registry : (string, metric) Hashtbl.t;
  mutable order : string list;  (* registration order, reversed *)
  (* Pre-registered handles for the runtime's own counters: the hot path
     bumps a record field, never the hashtable. *)
  n_events : counter;
  n_crashes : counter;
  n_hangs : counter;
  n_byzantine : counter;
  n_ignored : counter;
  n_transformed : counter;
  n_disabled : counter;
  n_replayed : counter;
  n_dropped_replay : counter;
  n_resource : counter;
  n_quarantined : counter;
  n_suppressed : counter;
  n_retransmits : counter;
  n_barrier_acks : counter;
  n_resyncs : counter;
  n_resynced_rules : counter;
  n_unreachable : counter;
  n_inv_hits : counter;
  n_inv_misses : counter;
  n_inv_invalidations : counter;
  n_inv_recaptures : counter;
  n_inv_memoized : counter;
  n_inv_evictions : counter;
  n_ckpts : counter;
  n_ckpt_restores : counter;
  n_ckpt_hits : counter;
  n_ckpt_misses : counter;
  n_ckpt_deduped : counter;
  n_ckpt_written : counter;
  n_cc_evictions : counter;
  n_policy_compromises : counter;
  n_policy_rejected : counter;
  n_policy_reconciles : counter;
  n_nv_events : counter;
  n_nv_masked : counter;
  n_nv_outvoted : counter;
  n_nv_variant_crashes : counter;
  n_nv_no_majority : counter;
  n_nv_resyncs : counter;
  n_nv_resync_bytes : counter;
  n_nv_sheds : counter;
  n_nv_grows : counter;
  (* Pre-registered gauge: the incremental checker's resident trace-cache
     bytes, updated from the runtime's eviction observer. *)
  g_inv_cache_bytes : gauge;
  outages : (string, app_outage) Hashtbl.t;
}

let register t name metric =
  if Hashtbl.mem t.registry name then
    invalid_arg (Printf.sprintf "Metrics: %S already registered" name);
  Hashtbl.replace t.registry name metric;
  t.order <- name :: t.order

let new_counter t name =
  let c = { c_name = name; c_value = 0 } in
  register t name (Counter c);
  c

let create () =
  (* Sequential let-bindings, not record-field initializers, so the
     registration order (hence [names]) is the declaration order. *)
  let t =
    {
      registry = Hashtbl.create 64;
      order = [];
      n_events = { c_name = "events"; c_value = 0 };
      n_crashes = { c_name = "crashes"; c_value = 0 };
      n_hangs = { c_name = "hangs"; c_value = 0 };
      n_byzantine = { c_name = "byzantine"; c_value = 0 };
      n_ignored = { c_name = "ignored"; c_value = 0 };
      n_transformed = { c_name = "transformed"; c_value = 0 };
      n_disabled = { c_name = "disabled"; c_value = 0 };
      n_replayed = { c_name = "replayed"; c_value = 0 };
      n_dropped_replay = { c_name = "dropped-in-replay"; c_value = 0 };
      n_resource = { c_name = "resource-breaches"; c_value = 0 };
      n_quarantined = { c_name = "quarantined"; c_value = 0 };
      n_suppressed = { c_name = "suppressed"; c_value = 0 };
      n_retransmits = { c_name = "retransmits"; c_value = 0 };
      n_barrier_acks = { c_name = "barrier-acks"; c_value = 0 };
      n_resyncs = { c_name = "resyncs"; c_value = 0 };
      n_resynced_rules = { c_name = "resynced-rules"; c_value = 0 };
      n_unreachable = { c_name = "unreachable"; c_value = 0 };
      n_inv_hits = { c_name = "inv-hits"; c_value = 0 };
      n_inv_misses = { c_name = "inv-misses"; c_value = 0 };
      n_inv_invalidations = { c_name = "inv-invalidations"; c_value = 0 };
      n_inv_recaptures = { c_name = "inv-recaptures"; c_value = 0 };
      n_inv_memoized = { c_name = "inv-memoized"; c_value = 0 };
      n_inv_evictions = { c_name = "inv-evictions"; c_value = 0 };
      n_ckpts = { c_name = "checkpoints"; c_value = 0 };
      n_ckpt_restores = { c_name = "ckpt-restores"; c_value = 0 };
      n_ckpt_hits = { c_name = "ckpt-chunk-hits"; c_value = 0 };
      n_ckpt_misses = { c_name = "ckpt-chunk-misses"; c_value = 0 };
      n_ckpt_deduped = { c_name = "ckpt-bytes-deduped"; c_value = 0 };
      n_ckpt_written = { c_name = "ckpt-bytes-written"; c_value = 0 };
      n_cc_evictions = { c_name = "counter-cache-evictions"; c_value = 0 };
      n_policy_compromises = { c_name = "policy_compromises"; c_value = 0 };
      n_policy_rejected = { c_name = "policy_rejected"; c_value = 0 };
      n_policy_reconciles = { c_name = "policy_reconciles"; c_value = 0 };
      n_nv_events = { c_name = "nversion_events"; c_value = 0 };
      n_nv_masked = { c_name = "nversion_masked"; c_value = 0 };
      n_nv_outvoted = { c_name = "nversion_outvoted"; c_value = 0 };
      n_nv_variant_crashes =
        { c_name = "nversion_variant_crashes"; c_value = 0 };
      n_nv_no_majority = { c_name = "nversion_no_majority"; c_value = 0 };
      n_nv_resyncs = { c_name = "nversion_resyncs"; c_value = 0 };
      n_nv_resync_bytes = { c_name = "nversion_resync_bytes"; c_value = 0 };
      n_nv_sheds = { c_name = "nversion_sheds"; c_value = 0 };
      n_nv_grows = { c_name = "nversion_grows"; c_value = 0 };
      g_inv_cache_bytes =
        { g_name = "inv-trace-cache-bytes"; g_value = 0. };
      outages = Hashtbl.create 8;
    }
  in
  List.iter
    (fun c -> register t c.c_name (Counter c))
    [
      t.n_events; t.n_crashes; t.n_hangs; t.n_byzantine; t.n_ignored;
      t.n_transformed; t.n_disabled; t.n_replayed; t.n_dropped_replay;
      t.n_resource; t.n_quarantined; t.n_suppressed; t.n_retransmits;
      t.n_barrier_acks; t.n_resyncs; t.n_resynced_rules; t.n_unreachable;
      t.n_inv_hits; t.n_inv_misses; t.n_inv_invalidations;
      t.n_inv_recaptures; t.n_inv_memoized; t.n_inv_evictions;
      t.n_ckpts; t.n_ckpt_restores;
      t.n_ckpt_hits; t.n_ckpt_misses; t.n_ckpt_deduped; t.n_ckpt_written;
      t.n_cc_evictions; t.n_policy_compromises; t.n_policy_rejected;
      t.n_policy_reconciles; t.n_nv_events; t.n_nv_masked; t.n_nv_outvoted;
      t.n_nv_variant_crashes; t.n_nv_no_majority; t.n_nv_resyncs;
      t.n_nv_resync_bytes; t.n_nv_sheds; t.n_nv_grows;
    ];
  register t t.g_inv_cache_bytes.g_name (Gauge t.g_inv_cache_bytes);
  t

(* ---------------- registry API ---------------- *)

let counter t name =
  match Hashtbl.find_opt t.registry name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a counter" name)
  | None -> new_counter t name

let gauge t name =
  match Hashtbl.find_opt t.registry name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a gauge" name)
  | None ->
      let g = { g_name = name; g_value = 0. } in
      register t name (Gauge g);
      g

let histogram t name =
  match Hashtbl.find_opt t.registry name with
  | Some (Histogram h) -> h
  | Some _ ->
      invalid_arg (Printf.sprintf "Metrics: %S is not a histogram" name)
  | None ->
      let h = Obs.Histogram.create () in
      register t name (Histogram h);
      h

let attach_histogram t name h =
  match Hashtbl.find_opt t.registry name with
  | Some (Histogram _) -> Hashtbl.replace t.registry name (Histogram h)
  | Some _ ->
      invalid_arg (Printf.sprintf "Metrics: %S is not a histogram" name)
  | None -> register t name (Histogram h)

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value
let counter_name c = c.c_name
let set g v = g.g_value <- v
let gauge_value g = g.g_value
let gauge_name g = g.g_name
let find t name = Hashtbl.find_opt t.registry name
let names t = List.rev t.order

let pp_registry fmt t =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i name ->
      if i > 0 then Format.fprintf fmt "@,";
      match Hashtbl.find_opt t.registry name with
      | Some (Counter c) -> Format.fprintf fmt "%s=%d" name c.c_value
      | Some (Gauge g) -> Format.fprintf fmt "%s=%g" name g.g_value
      | Some (Histogram h) ->
          Format.fprintf fmt "%s: %a" name Obs.Histogram.pp h
      | None -> ())
    (names t);
  Format.fprintf fmt "@]"

(* ---------------- compat view ---------------- *)

let incr_events t = incr t.n_events
let incr_crash t = incr t.n_crashes
let incr_hang t = incr t.n_hangs
let incr_byzantine t = incr t.n_byzantine
let incr_ignored t = incr t.n_ignored
let incr_transformed t = incr t.n_transformed
let incr_disabled t = incr t.n_disabled
let incr_replayed t n = add t.n_replayed n
let incr_dropped_in_replay t n = add t.n_dropped_replay n
let incr_resource_breach t = incr t.n_resource
let incr_quarantined t = incr t.n_quarantined
let incr_suppressed t = incr t.n_suppressed
let incr_retransmits t = incr t.n_retransmits
let incr_barrier_acks t = incr t.n_barrier_acks
let incr_resyncs t = incr t.n_resyncs
let incr_resynced_rules t n = add t.n_resynced_rules n
let incr_unreachable t = incr t.n_unreachable

let incr_policy_compromise t = incr t.n_policy_compromises
let incr_policy_rejected t = incr t.n_policy_rejected
let incr_policy_reconcile t = incr t.n_policy_reconciles
let policy_compromises t = value t.n_policy_compromises
let policy_rejected t = value t.n_policy_rejected
let policy_reconciles t = value t.n_policy_reconciles
let incr_nv_events t = incr t.n_nv_events
let incr_nv_masked t = incr t.n_nv_masked
let incr_nv_outvoted t = incr t.n_nv_outvoted
let incr_nv_variant_crashes t = incr t.n_nv_variant_crashes
let incr_nv_no_majority t = incr t.n_nv_no_majority
let incr_nv_resyncs t = incr t.n_nv_resyncs
let add_nv_resync_bytes t n = add t.n_nv_resync_bytes n
let incr_nv_sheds t = incr t.n_nv_sheds
let incr_nv_grows t = incr t.n_nv_grows
let nv_events t = value t.n_nv_events
let nv_masked t = value t.n_nv_masked
let nv_outvoted t = value t.n_nv_outvoted
let nv_variant_crashes t = value t.n_nv_variant_crashes
let nv_no_majority t = value t.n_nv_no_majority
let nv_resyncs t = value t.n_nv_resyncs
let nv_resync_bytes t = value t.n_nv_resync_bytes
let nv_sheds t = value t.n_nv_sheds
let nv_grows t = value t.n_nv_grows
let incr_inv_trace_hit t = incr t.n_inv_hits
let incr_inv_trace_miss t = incr t.n_inv_misses
let incr_inv_invalidation t = incr t.n_inv_invalidations
let incr_inv_recapture t = incr t.n_inv_recaptures
let incr_inv_memoized t = incr t.n_inv_memoized
let incr_inv_eviction t = incr t.n_inv_evictions
let set_inv_cache_bytes t bytes = set t.g_inv_cache_bytes (float_of_int bytes)
let incr_checkpoint t = incr t.n_ckpts
let incr_ckpt_restore t = incr t.n_ckpt_restores
let add_ckpt_chunk_hits t n = add t.n_ckpt_hits n
let add_ckpt_chunk_misses t n = add t.n_ckpt_misses n
let add_ckpt_bytes_deduped t n = add t.n_ckpt_deduped n
let add_ckpt_bytes_written t n = add t.n_ckpt_written n
let incr_counter_cache_eviction t = incr t.n_cc_evictions

let events t = value t.n_events
let crashes t = value t.n_crashes
let hangs t = value t.n_hangs
let byzantine_blocked t = value t.n_byzantine
let ignored t = value t.n_ignored
let transformed t = value t.n_transformed
let disabled t = value t.n_disabled
let replayed t = value t.n_replayed
let dropped_in_replay t = value t.n_dropped_replay
let resource_breaches t = value t.n_resource
let quarantined t = value t.n_quarantined
let suppressed t = value t.n_suppressed
let retransmits t = value t.n_retransmits
let barrier_acks t = value t.n_barrier_acks
let resyncs t = value t.n_resyncs
let resynced_rules t = value t.n_resynced_rules
let unreachable t = value t.n_unreachable
let inv_trace_hits t = value t.n_inv_hits
let inv_trace_misses t = value t.n_inv_misses
let inv_invalidations t = value t.n_inv_invalidations
let inv_recaptures t = value t.n_inv_recaptures
let inv_memoized_checks t = value t.n_inv_memoized
let inv_evictions t = value t.n_inv_evictions
let inv_cache_bytes t = int_of_float (gauge_value t.g_inv_cache_bytes)
let checkpoints t = value t.n_ckpts
let ckpt_restores t = value t.n_ckpt_restores
let ckpt_chunk_hits t = value t.n_ckpt_hits
let ckpt_chunk_misses t = value t.n_ckpt_misses
let ckpt_bytes_deduped t = value t.n_ckpt_deduped
let ckpt_bytes_written t = value t.n_ckpt_written
let counter_cache_evictions t = value t.n_cc_evictions

(* ---------------- per-app downtime ---------------- *)

let outage t app =
  match Hashtbl.find_opt t.outages app with
  | Some o -> o
  | None ->
      let o = { accumulated = 0.; down_since = None } in
      Hashtbl.replace t.outages app o;
      o

let add_app_downtime t ~app seconds =
  let o = outage t app in
  o.accumulated <- o.accumulated +. seconds

let mark_app_down_from t ~app time =
  let o = outage t app in
  if o.down_since = None then o.down_since <- Some time

let app_downtime t ~app ~until =
  match Hashtbl.find_opt t.outages app with
  | None -> 0.
  | Some o ->
      let open_ended =
        match o.down_since with
        | Some since when until > since -> until -. since
        | Some _ | None -> 0.
      in
      o.accumulated +. open_ended

let availability t ~app ~until =
  if until <= 0. then 1.
  else
    let down = min (app_downtime t ~app ~until) until in
    1. -. (down /. until)

let pp fmt t =
  Format.fprintf fmt
    "@[<v>events=%d crashes=%d hangs=%d byzantine=%d@,ignored=%d transformed=%d disabled=%d@,replayed=%d dropped-in-replay=%d resource-breaches=%d@,quarantined=%d suppressed=%d@,retransmits=%d barrier-acks=%d resyncs=%d resynced-rules=%d unreachable=%d@,inv-cache hits=%d misses=%d invalidations=%d recaptures=%d memoized=%d evictions=%d@,checkpoints=%d ckpt-restores=%d ckpt-chunk hits=%d misses=%d deduped=%d written=%d cc-evictions=%d@,nversion events=%d masked=%d outvoted=%d variant-crashes=%d no-majority=%d nv-resyncs=%d nv-resync-bytes=%d sheds=%d grows=%d@]"
    (events t) (crashes t) (hangs t) (byzantine_blocked t) (ignored t)
    (transformed t) (disabled t) (replayed t) (dropped_in_replay t)
    (resource_breaches t) (quarantined t) (suppressed t) (retransmits t)
    (barrier_acks t) (resyncs t) (resynced_rules t) (unreachable t)
    (inv_trace_hits t) (inv_trace_misses t) (inv_invalidations t)
    (inv_recaptures t) (inv_memoized_checks t) (inv_evictions t)
    (checkpoints t)
    (ckpt_restores t) (ckpt_chunk_hits t) (ckpt_chunk_misses t)
    (ckpt_bytes_deduped t) (ckpt_bytes_written t)
    (counter_cache_evictions t)
    (nv_events t) (nv_masked t) (nv_outvoted t) (nv_variant_crashes t)
    (nv_no_majority t) (nv_resyncs t) (nv_resync_bytes t) (nv_sheds t)
    (nv_grows t)
