module Event = Controller.Event
module Checker = Invariants.Checker

type error = { line : int; message : string }

let pp_error fmt e = Format.fprintf fmt "line %d: %s" e.line e.message

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  strip_comment line |> String.split_on_char ' '
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

(* "1:2,3:4" -> [(1,2); (3,4)] *)
let parse_pairs s =
  try
    Ok
      (String.split_on_char ',' s
      |> List.map (fun pair ->
             match String.split_on_char ':' pair with
             | [ a; b ] -> (int_of_string a, int_of_string b)
             | _ -> failwith "pair"))
  with _ -> Error (Printf.sprintf "cannot parse host pairs %S" s)

(* "1,2|3,4" -> ([1;2], [3;4]) *)
let parse_groups s =
  try
    match String.split_on_char '|' s with
    | [ a; b ] ->
        let ints x =
          String.split_on_char ',' x |> List.map int_of_string
        in
        Ok (ints a, ints b)
    | _ -> failwith "groups"
  with _ -> Error (Printf.sprintf "cannot parse host groups %S" s)

let kind_of_name name =
  List.find_opt (fun k -> Event.kind_name k = name) Event.all_kinds

(* Mutable accumulation while scanning the file. *)
type builder = {
  mutable checkpoint_every : int;
  mutable checkpoint_mode : Runtime.ckpt_mode;
  mutable quarantine_threshold : int option;
  mutable timing : Detector.timing;
  mutable limits : Resources.limits;
  mutable invariants : Checker.invariant list option;
      (* None = never touched, keep defaults *)
  mutable rules : Recovery_policy.rule list;  (* reverse order *)
  mutable default : Recovery_policy.compromise option;
  mutable reliable : Reliable.config;
  mutable cluster : Runtime.cluster_config;
  mutable dispatch : Runtime.dispatch_mode;
  mutable trace_cache_budget : int option;
  mutable workload : Runtime.workload_config option;
  mutable nversion : Voter.config option;
}

let fresh_builder () =
  {
    checkpoint_every = Runtime.default_config.Runtime.checkpoint_every;
    checkpoint_mode = Runtime.default_config.Runtime.checkpoint_mode;
    quarantine_threshold = None;
    timing = Detector.default_timing;
    limits = Resources.unlimited;
    invariants = None;
    rules = [];
    default = None;
    reliable = Runtime.default_config.Runtime.reliable;
    cluster = Runtime.default_config.Runtime.cluster;
    dispatch = Runtime.default_config.Runtime.dispatch;
    trace_cache_budget = Runtime.default_config.Runtime.trace_cache_budget;
    workload = Runtime.default_config.Runtime.workload;
    nversion = Runtime.default_config.Runtime.nversion;
  }

let add_invariant b inv =
  b.invariants <- Some (Option.value b.invariants ~default:[] @ [ inv ])

let directive b lineno toks =
  let err message = Error { line = lineno; message } in
  match toks with
  | [] -> Ok ()
  | [ "checkpoint"; "every"; k ] -> (
      match int_of_string_opt k with
      | Some k when k >= 1 ->
          b.checkpoint_every <- k;
          Ok ()
      | _ -> err (Printf.sprintf "bad checkpoint cadence %S" k))
  | [ "checkpoint"; "mode"; m ] -> (
      match m with
      | "full" ->
          b.checkpoint_mode <- Runtime.Ckpt_full;
          Ok ()
      | "delta" ->
          b.checkpoint_mode <- Runtime.Ckpt_delta;
          Ok ()
      | "delta-adaptive" ->
          b.checkpoint_mode <- Runtime.Ckpt_delta_adaptive;
          Ok ()
      | _ -> err (Printf.sprintf "unknown checkpoint mode %S" m))
  | [ "dispatch"; "seq" ] ->
      b.dispatch <- Runtime.Sequential;
      Ok ()
  | [ "dispatch"; "batched" ] ->
      b.dispatch <- Runtime.default_sharded;
      Ok ()
  | [ "dispatch"; "batched"; "batch"; m ] -> (
      match int_of_string_opt m with
      | Some max_batch when max_batch >= 1 ->
          b.dispatch <- Runtime.Batched { max_batch };
          Ok ()
      | _ -> err "bad dispatch directive (need batch >= 1)")
  | [ "trace-cache"; "budget"; n ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 ->
          b.trace_cache_budget <- Some n;
          Ok ()
      | _ -> err (Printf.sprintf "bad trace-cache budget %S (bytes > 0)" n))
  | [ "trace-cache"; "unbounded" ] ->
      b.trace_cache_budget <- None;
      Ok ()
  | [ "workload"; "trace" ] ->
      b.workload <- Some Runtime.default_workload_config;
      Ok ()
  | [
      "workload"; "trace"; "seed"; seed; "rate"; rate; "alpha"; alpha;
      "diurnal"; diurnal; "period"; period; "churn"; churn;
    ] -> (
      match
        ( int_of_string_opt seed,
          float_of_string_opt rate,
          float_of_string_opt alpha,
          float_of_string_opt diurnal,
          float_of_string_opt period,
          float_of_string_opt churn )
      with
      | ( Some w_seed,
          Some w_rate,
          Some w_alpha,
          Some w_diurnal,
          Some w_period,
          Some w_churn )
        when w_rate > 0. && w_alpha > 1. && w_diurnal >= 0.
             && w_diurnal <= 1. && w_period > 0. && w_churn >= 0. ->
          b.workload <-
            Some
              { Runtime.w_seed; w_rate; w_alpha; w_diurnal; w_period; w_churn };
          Ok ()
      | _ ->
          err
            "bad workload directive (need rate > 0, alpha > 1, diurnal in \
             [0,1], period > 0, churn >= 0)")
  | [ "reliable"; "on" ] ->
      b.reliable <- { b.reliable with Reliable.enabled = true };
      Ok ()
  | [ "reliable"; "off" ] ->
      b.reliable <- { b.reliable with Reliable.enabled = false };
      Ok ()
  | [ "reliable"; onoff; "timeout"; tmo; "retries"; n ]
    when onoff = "on" || onoff = "off" -> (
      match (float_of_string_opt tmo, int_of_string_opt n) with
      | Some base_timeout, Some max_retries
        when base_timeout > 0. && max_retries >= 0 ->
          b.reliable <-
            { Reliable.enabled = onoff = "on"; base_timeout; max_retries };
          Ok ()
      | _ -> err "bad reliable directive")
  | [ "replicas"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 && n mod 2 = 1 ->
          b.cluster <- { b.cluster with Runtime.replicas = n };
          Ok ()
      | Some _ -> err "replicas must be odd (2f+1)"
      | None -> err (Printf.sprintf "bad replica count %S" n))
  | [ "election"; "timeout"; lo; hi ] -> (
      match (float_of_string_opt lo, float_of_string_opt hi) with
      | Some election_lo, Some election_hi
        when election_lo > 0. && election_hi > election_lo ->
          b.cluster <- { b.cluster with Runtime.election_lo; election_hi };
          Ok ()
      | _ -> err "bad election timeout range (need 0 < lo < hi)")
  | [ "nversion"; "off" ] ->
      b.nversion <- None;
      Ok ()
  | [ "nversion"; n ] -> (
      match int_of_string_opt n with
      | Some nv_replicas when nv_replicas >= 2 ->
          b.nversion <-
            Some { Voter.nv_replicas; nv_adaptive = false; nv_shed_after = 0 };
          Ok ()
      | _ -> err (Printf.sprintf "bad nversion panel size %S (need >= 2)" n))
  | [ "nversion"; n; "adaptive"; "shed-after"; k ] -> (
      match (int_of_string_opt n, int_of_string_opt k) with
      | Some nv_replicas, Some nv_shed_after
        when nv_replicas >= 2 && nv_shed_after >= 1 ->
          b.nversion <-
            Some { Voter.nv_replicas; nv_adaptive = true; nv_shed_after };
          Ok ()
      | _ -> err "bad nversion directive (need replicas >= 2, shed-after >= 1)")
  | [ "quarantine"; "threshold"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
          b.quarantine_threshold <- Some n;
          Ok ()
      | _ -> err (Printf.sprintf "bad quarantine threshold %S" n))
  | [ "heartbeat"; "interval"; i; "misses"; m ] -> (
      match (float_of_string_opt i, int_of_string_opt m) with
      | Some interval, Some misses when interval > 0. && misses >= 1 ->
          b.timing <-
            {
              b.timing with
              Detector.heartbeat_interval = interval;
              heartbeat_misses = misses;
            };
          Ok ()
      | _ -> err "bad heartbeat directive")
  | [ "rpc"; "timeout"; t ] -> (
      match float_of_string_opt t with
      | Some timeout when timeout > 0. ->
          b.timing <- { b.timing with Detector.rpc_timeout = timeout };
          Ok ()
      | _ -> err (Printf.sprintf "bad rpc timeout %S" t))
  | [ "limit"; "state-bytes"; n ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 ->
          b.limits <- { b.limits with Resources.max_state_bytes = Some n };
          Ok ()
      | _ -> err (Printf.sprintf "bad state-bytes limit %S" n))
  | [ "limit"; "commands-per-event"; n ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 ->
          b.limits <-
            { b.limits with Resources.max_commands_per_event = Some n };
          Ok ()
      | _ -> err (Printf.sprintf "bad commands-per-event limit %S" n))
  | [ "invariant"; "loop-freedom" ] ->
      add_invariant b Checker.Loop_freedom;
      Ok ()
  | [ "invariant"; "black-hole-freedom" ] ->
      add_invariant b Checker.Black_hole_freedom;
      Ok ()
  | [ "invariant"; "no-drop-all" ] ->
      add_invariant b Checker.No_drop_all;
      Ok ()
  | [ "invariant"; "reachability"; pairs ] -> (
      match parse_pairs pairs with
      | Ok pairs ->
          add_invariant b (Checker.Pairwise_reachability pairs);
          Ok ()
      | Error m -> err m)
  | [ "invariant"; "isolation"; groups ] -> (
      match parse_groups groups with
      | Ok (group_a, group_b) ->
          add_invariant b (Checker.Isolation { group_a; group_b });
          Ok ()
      | Error m -> err m)
  | [ "invariant"; "waypoint"; "via"; sid; "pairs"; pairs ] -> (
      match (int_of_string_opt sid, parse_pairs pairs) with
      | Some via, Ok pairs ->
          add_invariant b (Checker.Waypoint { pairs; via });
          Ok ()
      | None, _ -> err (Printf.sprintf "bad waypoint switch %S" sid)
      | _, Error m -> err m)
  | [ "app"; a; "event"; k; "=>"; c ] -> (
      match Recovery_policy.compromise_of_name c with
      | None -> err (Printf.sprintf "unknown compromise %S" c)
      | Some action -> (
          let app = if a = "*" then None else Some a in
          match
            if k = "*" then Ok None
            else
              match kind_of_name k with
              | Some kind -> Ok (Some kind)
              | None -> Error (Printf.sprintf "unknown event kind %S" k)
          with
          | Error m -> err m
          | Ok kind ->
              b.rules <- { Recovery_policy.app; kind; action } :: b.rules;
              Ok ()))
  | [ "default"; "=>"; c ] -> (
      match Recovery_policy.compromise_of_name c with
      | None -> err (Printf.sprintf "unknown compromise %S" c)
      | Some action ->
          if b.default <> None then err "duplicate default directive"
          else begin
            b.default <- Some action;
            Ok ()
          end)
  | _ ->
      err
        (Printf.sprintf "cannot parse directive %S"
           (String.concat " " toks))

let parse text =
  let b = fresh_builder () in
  let lines = String.split_on_char '\n' text in
  let rec scan lineno = function
    | [] -> Ok ()
    | line :: rest -> (
        match directive b lineno (tokens line) with
        | Ok () -> scan (lineno + 1) rest
        | Error e -> Error e)
  in
  match scan 1 lines with
  | Error e -> Error e
  | Ok () ->
      Ok
        {
          Runtime.checkpoint_every = b.checkpoint_every;
          checkpoint_mode = b.checkpoint_mode;
          reliable = b.reliable;
          cluster = b.cluster;
          dispatch = b.dispatch;
          trace_cache_budget = b.trace_cache_budget;
          workload = b.workload;
          nversion = b.nversion;
          crashpad =
            {
              Crashpad.policy =
                Recovery_policy.make ?default:b.default (List.rev b.rules);
              invariants =
                Option.value b.invariants ~default:Checker.default;
              timing = b.timing;
              limits = b.limits;
              quarantine =
                Option.map
                  (fun threshold -> Quarantine.create ~threshold ())
                  b.quarantine_threshold;
            };
        }

let parse_exn text =
  match parse text with
  | Ok c -> c
  | Error e -> failwith (Format.asprintf "config: %a" pp_error e)

let print (config : Runtime.config) =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "checkpoint every %d" config.Runtime.checkpoint_every;
  line "checkpoint mode %s"
    (match config.Runtime.checkpoint_mode with
    | Runtime.Ckpt_full -> "full"
    | Runtime.Ckpt_delta -> "delta"
    | Runtime.Ckpt_delta_adaptive -> "delta-adaptive");
  (match config.Runtime.dispatch with
  | Runtime.Sequential -> line "dispatch seq"
  | Runtime.Batched { max_batch } -> line "dispatch batched batch %d" max_batch);
  (match config.Runtime.trace_cache_budget with
  | Some n -> line "trace-cache budget %d" n
  | None -> ());
  (match config.Runtime.workload with
  | Some w ->
      line "workload trace seed %d rate %g alpha %g diurnal %g period %g churn %g"
        w.Runtime.w_seed w.Runtime.w_rate w.Runtime.w_alpha
        w.Runtime.w_diurnal w.Runtime.w_period w.Runtime.w_churn
  | None -> ());
  (match config.Runtime.nversion with
  | Some v when v.Voter.nv_adaptive ->
      line "nversion %d adaptive shed-after %d" v.Voter.nv_replicas
        v.Voter.nv_shed_after
  | Some v -> line "nversion %d" v.Voter.nv_replicas
  | None -> ());
  let rel = config.Runtime.reliable in
  line "reliable %s timeout %g retries %d"
    (if rel.Reliable.enabled then "on" else "off")
    rel.Reliable.base_timeout rel.Reliable.max_retries;
  let cl = config.Runtime.cluster in
  line "replicas %d" cl.Runtime.replicas;
  line "election timeout %g %g" cl.Runtime.election_lo cl.Runtime.election_hi;
  let cp = config.Runtime.crashpad in
  (match cp.Crashpad.quarantine with
  | Some q -> line "quarantine threshold %d" (Quarantine.threshold q)
  | None -> ());
  line "heartbeat interval %g misses %d"
    cp.Crashpad.timing.Detector.heartbeat_interval
    cp.Crashpad.timing.Detector.heartbeat_misses;
  line "rpc timeout %g" cp.Crashpad.timing.Detector.rpc_timeout;
  (match cp.Crashpad.limits.Resources.max_state_bytes with
  | Some n -> line "limit state-bytes %d" n
  | None -> ());
  (match cp.Crashpad.limits.Resources.max_commands_per_event with
  | Some n -> line "limit commands-per-event %d" n
  | None -> ());
  let pairs_str pairs =
    String.concat ","
      (List.map (fun (a, c) -> Printf.sprintf "%d:%d" a c) pairs)
  in
  List.iter
    (function
      | Checker.Loop_freedom -> line "invariant loop-freedom"
      | Checker.Black_hole_freedom -> line "invariant black-hole-freedom"
      | Checker.No_drop_all -> line "invariant no-drop-all"
      | Checker.Pairwise_reachability pairs ->
          line "invariant reachability %s" (pairs_str pairs)
      | Checker.Isolation { group_a; group_b } ->
          line "invariant isolation %s|%s"
            (String.concat "," (List.map string_of_int group_a))
            (String.concat "," (List.map string_of_int group_b))
      | Checker.Waypoint { pairs; via } ->
          line "invariant waypoint via %d pairs %s" via (pairs_str pairs))
    cp.Crashpad.invariants;
  List.iter
    (fun (r : Recovery_policy.rule) ->
      line "app %s event %s => %s"
        (Option.value r.Recovery_policy.app ~default:"*")
        (match r.Recovery_policy.kind with
        | None -> "*"
        | Some k -> Event.kind_name k)
        (Recovery_policy.compromise_name r.Recovery_policy.action))
    (Recovery_policy.rules cp.Crashpad.policy);
  line "default => %s"
    (Recovery_policy.compromise_name (Recovery_policy.default_action cp.Crashpad.policy));
  Buffer.contents b
