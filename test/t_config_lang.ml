module App_sig = Controller.App_sig
module Config_lang = Legosdn.Config_lang
module Runtime = Legosdn.Runtime
module Crashpad = Legosdn.Crashpad
module Recovery_policy = Legosdn.Recovery_policy
module Quarantine = Legosdn.Quarantine
module Detector = Legosdn.Detector
module Resources = Legosdn.Resources
module Checker = Invariants.Checker
module Event = Controller.Event

let example =
  {|
# production config
checkpoint every 5
replicas 3
election timeout 0.1 0.25
quarantine threshold 3
heartbeat interval 0.2 misses 5
rpc timeout 0.01
limit state-bytes 200000
limit commands-per-event 128
invariant loop-freedom
invariant no-drop-all
invariant isolation 1,2|5,6
invariant waypoint via 3 pairs 1:5,2:6
app firewall event * => no-compromise
app * event switch_down => equivalence
default => absolute
|}

let test_parse_full_example () =
  let c = Config_lang.parse_exn example in
  T_util.checki "checkpoint k" 5 c.Runtime.checkpoint_every;
  T_util.checki "replicas" 3 c.Runtime.cluster.Runtime.replicas;
  Alcotest.(check (float 1e-9)) "election lo" 0.1
    c.Runtime.cluster.Runtime.election_lo;
  Alcotest.(check (float 1e-9)) "election hi" 0.25
    c.Runtime.cluster.Runtime.election_hi;
  let cp = c.Runtime.crashpad in
  (match cp.Crashpad.quarantine with
  | Some q -> T_util.checki "quarantine threshold" 3 (Quarantine.threshold q)
  | None -> Alcotest.fail "quarantine expected");
  Alcotest.(check (float 1e-9)) "heartbeat interval" 0.2
    cp.Crashpad.timing.Detector.heartbeat_interval;
  T_util.checki "misses" 5 cp.Crashpad.timing.Detector.heartbeat_misses;
  Alcotest.(check (float 1e-9)) "rpc timeout" 0.01
    cp.Crashpad.timing.Detector.rpc_timeout;
  T_util.checkb "state limit" true
    (cp.Crashpad.limits.Resources.max_state_bytes = Some 200_000);
  T_util.checkb "command limit" true
    (cp.Crashpad.limits.Resources.max_commands_per_event = Some 128);
  T_util.checki "four invariants selected" 4 (List.length cp.Crashpad.invariants);
  T_util.checkb "isolation invariant present" true
    (List.mem
       (Checker.Isolation { group_a = [ 1; 2 ]; group_b = [ 5; 6 ] })
       cp.Crashpad.invariants);
  T_util.checkb "waypoint invariant present" true
    (List.mem
       (Checker.Waypoint { pairs = [ (1, 5); (2, 6) ]; via = 3 })
       cp.Crashpad.invariants);
  T_util.checkb "policy wired through" true
    (Recovery_policy.decide cp.Crashpad.policy ~app:"firewall" Event.K_tick
     = Recovery_policy.No_compromise);
  T_util.checkb "policy default" true
    (Recovery_policy.decide cp.Crashpad.policy ~app:"x" Event.K_packet_in
     = Recovery_policy.Absolute)

let test_empty_is_default () =
  let c = Config_lang.parse_exn "" in
  T_util.checki "default k" 1 c.Runtime.checkpoint_every;
  T_util.checkb "no quarantine" true (c.Runtime.crashpad.Crashpad.quarantine = None);
  T_util.checkb "default single controller" true
    (c.Runtime.cluster = Runtime.default_cluster_config);
  T_util.checkb "default invariants" true
    (c.Runtime.crashpad.Crashpad.invariants = Checker.default)

let test_scale_directives () =
  let c =
    Config_lang.parse_exn
      "trace-cache budget 65536\nworkload trace seed 7 rate 40 alpha 1.5 \
       diurnal 0.25 period 30 churn 0.1"
  in
  T_util.checkb "budget parsed" true (c.Runtime.trace_cache_budget = Some 65536);
  (match c.Runtime.workload with
  | Some w ->
      T_util.checki "workload seed" 7 w.Runtime.w_seed;
      Alcotest.(check (float 1e-9)) "workload rate" 40. w.Runtime.w_rate;
      Alcotest.(check (float 1e-9)) "workload alpha" 1.5 w.Runtime.w_alpha;
      Alcotest.(check (float 1e-9)) "workload diurnal" 0.25 w.Runtime.w_diurnal;
      Alcotest.(check (float 1e-9)) "workload period" 30. w.Runtime.w_period;
      Alcotest.(check (float 1e-9)) "workload churn" 0.1 w.Runtime.w_churn
  | None -> Alcotest.fail "workload expected");
  let d = Config_lang.parse_exn "workload trace\ntrace-cache unbounded" in
  T_util.checkb "bare workload = defaults" true
    (d.Runtime.workload = Some Runtime.default_workload_config);
  T_util.checkb "explicit unbounded" true (d.Runtime.trace_cache_budget = None);
  T_util.checkb "default is unbounded" true
    ((Config_lang.parse_exn "").Runtime.trace_cache_budget = None)

let contains ~fragment s =
  let n = String.length fragment in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = fragment || at (i + 1))
  in
  at 0

(* Each text is rejected on its last line, for the reason its fragment of
   the message names. *)
let test_errors_located () =
  let cases =
    [
      ("checkpoint every 0", "bad checkpoint cadence");
      ("engine mystery", "cannot parse directive");
      ("quarantine threshold x", "bad quarantine threshold");
      ("rpc timeout -1", "bad rpc timeout");
      ("invariant isolation 1,2", "cannot parse host groups");
      ("invariant waypoint via x pairs 1:2", "bad waypoint switch");
      ("app x event nope => absolute", "unknown event kind");
      ("default => maybe", "unknown compromise");
      ("default => absolute\ndefault => absolute", "duplicate default");
      ("replicas 2", "replicas must be odd");
      ("replicas x", "bad replica count");
      (* inverted range, then a non-positive lo *)
      ("election timeout 0.3 0.1", "bad election timeout range");
      ("election timeout 0 0.3", "bad election timeout range");
      (* non-positive, then non-numeric *)
      ("trace-cache budget 0", "bad trace-cache budget");
      ("trace-cache budget x", "bad trace-cache budget");
      (* zero rate, alpha not above 1, diurnal out of range *)
      ( "workload trace seed 1 rate 0 alpha 1.5 diurnal 0 period 60 churn 0",
        "bad workload directive" );
      ( "workload trace seed 1 rate 10 alpha 1 diurnal 0 period 60 churn 0",
        "bad workload directive" );
      ( "workload trace seed 1 rate 10 alpha 1.5 diurnal 2 period 60 churn 0",
        "bad workload directive" );
      (* The runtime has one transaction engine and always reconciles
         declared intent, so no directive picks either. *)
      ("engine netlog", "cannot parse directive");
      ("engine delay-buffer", "cannot parse directive");
      ("intent on", "cannot parse directive");
      ("intent off", "cannot parse directive");
    ]
  in
  List.iter
    (fun (text, fragment) ->
      let line = List.length (String.split_on_char '\n' text) in
      match Config_lang.parse text with
      | Ok _ -> Alcotest.failf "%S should be rejected (%s)" text fragment
      | Error e ->
          T_util.checki (text ^ ": line") line e.Config_lang.line;
          if not (contains ~fragment e.Config_lang.message) then
            Alcotest.failf "%S rejected for %S, not %S" text
              e.Config_lang.message fragment)
    cases

(* Semantic equality for configs: quarantine compares by presence and
   threshold (the store is a fresh value each parse). *)
let config_equiv (a : Runtime.config) (b : Runtime.config) =
  a.Runtime.checkpoint_every = b.Runtime.checkpoint_every
  && a.Runtime.checkpoint_mode = b.Runtime.checkpoint_mode
  && Recovery_policy.equal a.Runtime.crashpad.Crashpad.policy
       b.Runtime.crashpad.Crashpad.policy
  && a.Runtime.crashpad.Crashpad.invariants
     = b.Runtime.crashpad.Crashpad.invariants
  && a.Runtime.crashpad.Crashpad.timing = b.Runtime.crashpad.Crashpad.timing
  && a.Runtime.crashpad.Crashpad.limits = b.Runtime.crashpad.Crashpad.limits
  && a.Runtime.reliable = b.Runtime.reliable
  && a.Runtime.cluster = b.Runtime.cluster
  && a.Runtime.dispatch = b.Runtime.dispatch
  && a.Runtime.trace_cache_budget = b.Runtime.trace_cache_budget
  && a.Runtime.workload = b.Runtime.workload
  && a.Runtime.nversion = b.Runtime.nversion
  && Option.map Quarantine.threshold a.Runtime.crashpad.Crashpad.quarantine
     = Option.map Quarantine.threshold b.Runtime.crashpad.Crashpad.quarantine

let test_print_parse_roundtrip () =
  let c = Config_lang.parse_exn example in
  let c2 = Config_lang.parse_exn (Config_lang.print c) in
  T_util.checkb "roundtrip equivalence" true (config_equiv c c2)

let config_gen =
  QCheck2.Gen.(
    let compromise =
      oneofl [ Recovery_policy.No_compromise; Recovery_policy.Absolute; Recovery_policy.Equivalence ]
    in
    let* k = int_range 1 20 in
    let* mode =
      oneofl [ Runtime.Ckpt_full; Runtime.Ckpt_delta; Runtime.Ckpt_delta_adaptive ]
    in
    let* quarantine = opt (int_range 1 5) in
    let* state_limit = opt (int_range 1 1_000_000) in
    let* cmd_limit = opt (int_range 1 512) in
    let* invariants =
      list_size (int_bound 3)
        (oneof
           [
             return Checker.Loop_freedom;
             return Checker.Black_hole_freedom;
             return Checker.No_drop_all;
             map
               (fun pairs -> Checker.Pairwise_reachability pairs)
               (list_size (int_range 1 3) (pair (int_range 1 9) (int_range 1 9)));
             map2
               (fun a b ->
                 Checker.Isolation { group_a = a; group_b = b })
               (list_size (int_range 1 3) (int_range 1 9))
               (list_size (int_range 1 3) (int_range 1 9));
           ])
    in
    let rule =
      let* app = opt (oneofl [ "a"; "router" ]) in
      let* kind = opt (oneofl Event.all_kinds) in
      let* action = compromise in
      return { Recovery_policy.app; kind; action }
    in
    let* rules = list_size (int_bound 4) rule in
    let* default = compromise in
    let* rel_enabled = bool in
    let* rel_retries = int_range 0 16 in
    let* replicas = oneofl [ 1; 3; 5 ] in
    (* Exact-decimal timeouts: the printer uses %g, so round-tripping is
       only an equality for values it prints exactly. *)
    let* election_lo = oneofl [ 0.05; 0.1; 0.15; 0.2 ] in
    let* election_hi = oneofl [ 0.25; 0.3; 0.4 ] in
    let* dispatch =
      oneofl
        [
          Runtime.Sequential;
          Runtime.default_sharded;
          Runtime.Batched { max_batch = 7 };
        ]
    in
    let* trace_cache_budget = opt (int_range 1024 10_000_000) in
    (* Non-adaptive panels print without a shed-after clause, so only a
       zero shed-after round-trips exactly. *)
    let* nversion =
      oneofl
        [
          None;
          Some
            {
              Legosdn.Voter.nv_replicas = 3;
              nv_adaptive = false;
              nv_shed_after = 0;
            };
          Some
            {
              Legosdn.Voter.nv_replicas = 5;
              nv_adaptive = true;
              nv_shed_after = 8;
            };
        ]
    in
    (* Exact-decimal workload parameters, for the same %g reason. *)
    let* workload =
      opt
        (let* w_seed = int_range 0 1000 in
         let* w_rate = oneofl [ 5.; 20.; 120. ] in
         let* w_alpha = oneofl [ 1.2; 1.5; 2.5 ] in
         let* w_diurnal = oneofl [ 0.; 0.5; 1. ] in
         let* w_period = oneofl [ 30.; 60. ] in
         let* w_churn = oneofl [ 0.; 0.25 ] in
         return
           { Runtime.w_seed; w_rate; w_alpha; w_diurnal; w_period; w_churn })
    in
    return
      {
        Runtime.checkpoint_every = k;
        checkpoint_mode = mode;
        dispatch;
        trace_cache_budget;
        workload;
        nversion;
        cluster = { Runtime.replicas; election_lo; election_hi };
        reliable =
          {
            Legosdn.Reliable.enabled = rel_enabled;
            base_timeout = 0.05;
            max_retries = rel_retries;
          };
        crashpad =
          {
            Crashpad.policy = Recovery_policy.make ~default rules;
            invariants =
              (if invariants = [] then Checker.default else invariants);
            timing = Detector.default_timing;
            limits =
              {
                Resources.max_state_bytes = state_limit;
                max_commands_per_event = cmd_limit;
              };
            quarantine =
              Option.map (fun t -> Quarantine.create ~threshold:t ()) quarantine;
          };
      })

let prop_roundtrip =
  QCheck2.Test.make ~name:"print/parse roundtrip for any config" ~count:200
    config_gen (fun c ->
      config_equiv c (Config_lang.parse_exn (Config_lang.print c)))

let test_runtime_accepts_parsed_config () =
  let config = Config_lang.parse_exn example in
  let net =
    Netsim.Net.create (Netsim.Clock.create ())
      (Netsim.Topo_gen.linear ~hosts_per_switch:1 2)
  in
  let rt = Runtime.create ~config net [ (App_sig.app (module Apps.Learning_switch)) ] in
  Runtime.step rt;
  T_util.checkb "runtime runs under parsed config" true
    (Runtime.events_processed rt > 0)

let suite =
  [
    Alcotest.test_case "parse full example" `Quick test_parse_full_example;
    Alcotest.test_case "empty file is default config" `Quick test_empty_is_default;
    Alcotest.test_case "errors located" `Quick test_errors_located;
    Alcotest.test_case "trace-cache + workload directives" `Quick
      test_scale_directives;
    Alcotest.test_case "print/parse roundtrip" `Quick test_print_parse_roundtrip;
    Alcotest.test_case "runtime accepts parsed config" `Quick
      test_runtime_accepts_parsed_config;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
