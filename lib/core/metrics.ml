(* A stat is its slot in every store's array. Slots are handed out in
   declaration order, which is also the order of [all] and [names]. *)
type stat = int

let declared = ref []

let stat name =
  declared := name :: !declared;
  List.length !declared - 1

let events = stat "events"
let crashes = stat "crashes"
let hangs = stat "hangs"
let byzantine = stat "byzantine"
let ignored = stat "ignored"
let transformed = stat "transformed"
let disabled = stat "disabled"
let replayed = stat "replayed"
let dropped_in_replay = stat "dropped-in-replay"
let resource_breaches = stat "resource-breaches"
let quarantined = stat "quarantined"
let suppressed = stat "suppressed"
let retransmits = stat "retransmits"
let barrier_acks = stat "barrier-acks"
let resyncs = stat "resyncs"
let resynced_rules = stat "resynced-rules"
let unreachable = stat "unreachable"
let inv_hits = stat "inv-hits"
let inv_misses = stat "inv-misses"
let inv_invalidations = stat "inv-invalidations"
let inv_recaptures = stat "inv-recaptures"
let inv_memoized = stat "inv-memoized"
let inv_evictions = stat "inv-evictions"
let checkpoints = stat "checkpoints"
let ckpt_restores = stat "ckpt-restores"
let ckpt_chunk_hits = stat "ckpt-chunk-hits"
let ckpt_chunk_misses = stat "ckpt-chunk-misses"
let ckpt_bytes_deduped = stat "ckpt-bytes-deduped"
let ckpt_bytes_written = stat "ckpt-bytes-written"
let counter_cache_evictions = stat "counter-cache-evictions"
let policy_compromises = stat "policy_compromises"
let policy_rejected = stat "policy_rejected"
let policy_reconciles = stat "policy_reconciles"
let nv_events = stat "nversion_events"
let nv_masked = stat "nversion_masked"
let nv_outvoted = stat "nversion_outvoted"
let nv_variant_crashes = stat "nversion_variant_crashes"
let nv_no_majority = stat "nversion_no_majority"
let nv_resyncs = stat "nversion_resyncs"
let nv_resync_bytes = stat "nversion_resync_bytes"
let nv_sheds = stat "nversion_sheds"
let nv_grows = stat "nversion_grows"

let stat_names = Array.of_list (List.rev !declared)
let all = List.init (Array.length stat_names) Fun.id

type app_outage = {
  mutable accumulated : float;
  mutable down_since : float option;
}

type t = { counts : int array; outages : (string, app_outage) Hashtbl.t }

let create () =
  {
    counts = Array.make (Array.length stat_names) 0;
    outages = Hashtbl.create 8;
  }

let bump t s = t.counts.(s) <- t.counts.(s) + 1
let bump_by t s n = t.counts.(s) <- t.counts.(s) + n
let get t s = t.counts.(s)

(* ---------------- by name ---------------- *)

type counter = { store : t; slot : stat }
type metric = Counter of counter

let find t name =
  let rec scan i =
    if i = Array.length stat_names then None
    else if stat_names.(i) = name then Some (Counter { store = t; slot = i })
    else scan (i + 1)
  in
  scan 0

let names _ = Array.to_list stat_names
let value c = get c.store c.slot

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
  let g = get t in
  Format.fprintf fmt
    "@[<v>events=%d crashes=%d hangs=%d byzantine=%d@,ignored=%d transformed=%d disabled=%d@,replayed=%d dropped-in-replay=%d resource-breaches=%d@,quarantined=%d suppressed=%d@,retransmits=%d barrier-acks=%d resyncs=%d resynced-rules=%d unreachable=%d@,inv-cache hits=%d misses=%d invalidations=%d recaptures=%d memoized=%d evictions=%d@,checkpoints=%d ckpt-restores=%d ckpt-chunk hits=%d misses=%d deduped=%d written=%d cc-evictions=%d@,nversion events=%d masked=%d outvoted=%d variant-crashes=%d no-majority=%d nv-resyncs=%d nv-resync-bytes=%d sheds=%d grows=%d@]"
    (g events) (g crashes) (g hangs) (g byzantine) (g ignored)
    (g transformed) (g disabled) (g replayed) (g dropped_in_replay)
    (g resource_breaches) (g quarantined) (g suppressed) (g retransmits)
    (g barrier_acks) (g resyncs) (g resynced_rules) (g unreachable)
    (g inv_hits) (g inv_misses) (g inv_invalidations) (g inv_recaptures)
    (g inv_memoized) (g inv_evictions) (g checkpoints) (g ckpt_restores)
    (g ckpt_chunk_hits) (g ckpt_chunk_misses) (g ckpt_bytes_deduped)
    (g ckpt_bytes_written) (g counter_cache_evictions) (g nv_events)
    (g nv_masked) (g nv_outvoted) (g nv_variant_crashes) (g nv_no_majority)
    (g nv_resyncs) (g nv_resync_bytes) (g nv_sheds) (g nv_grows)
