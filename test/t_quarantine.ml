module App_sig = Controller.App_sig
open Openflow
open Netsim
module Quarantine = Legosdn.Quarantine
module Runtime = Legosdn.Runtime
module Crashpad = Legosdn.Crashpad
module Recovery_policy = Legosdn.Recovery_policy
module Metrics = Legosdn.Metrics
module Sandbox = Legosdn.Sandbox
module Event = Controller.Event

let packet_in ?(dport = 80) src dst =
  Event.Packet_in
    ( 1,
      {
        Message.pi_buffer_id = None;
        pi_in_port = 100;
        pi_reason = Message.No_match;
        pi_packet = Packet.tcp ~src_host:src ~dst_host:dst ~dport ();
      } )

let test_threshold_quarantines () =
  let q = Quarantine.create ~threshold:2 () in
  let ev = packet_in 1 2 in
  T_util.checkb "clean initially" false (Quarantine.blocked q ~app:"a" ev);
  T_util.checkb "first failure recorded" true
    (Quarantine.note_failure q ~app:"a" ev = `Recorded);
  T_util.checkb "second failure quarantines" true
    (Quarantine.note_failure q ~app:"a" ev = `Quarantined);
  T_util.checkb "now blocked" true (Quarantine.blocked q ~app:"a" ev);
  T_util.checkb "other apps unaffected" false (Quarantine.blocked q ~app:"b" ev);
  T_util.checkb "other events unaffected" false
    (Quarantine.blocked q ~app:"a" (packet_in 2 1))

let test_counts () =
  let q = Quarantine.create ~threshold:1 () in
  ignore (Quarantine.note_failure q ~app:"a" (packet_in 1 2));
  ignore (Quarantine.note_failure q ~app:"a" (packet_in 2 1));
  ignore (Quarantine.note_failure q ~app:"b" (packet_in 1 2));
  T_util.checki "three signatures quarantined" 3 (Quarantine.total_quarantined q);
  T_util.checki "two for app a" 2 (List.length (Quarantine.quarantined q ~app:"a"))

let test_invalid_threshold () =
  Alcotest.check_raises "threshold 0 rejected"
    (Invalid_argument "Quarantine.create: threshold must be >= 1") (fun () ->
      ignore (Quarantine.create ~threshold:0 ()))

let test_deep_analyze_quarantines_causal_set () =
  let module Cumulative = struct
    type state = { saw80 : bool; saw443 : bool }

    let name = "cumulative"
    let subscriptions = [ Event.K_packet_in ]
    let init () = { saw80 = false; saw443 = false }

    let handle _ st = function
      | Event.Packet_in (_, pi) ->
          let st =
            match pi.Message.pi_packet.Packet.tp_dst with
            | 80 -> { st with saw80 = true }
            | 443 -> { st with saw443 = true }
            | _ -> st
          in
          if st.saw80 && st.saw443 then failwith "cumulative";
          (st, [])
      | _ -> (st, [])
  end in
  let q = Quarantine.create () in
  let history =
    [ packet_in ~dport:22 1 2; packet_in ~dport:80 1 2; packet_in ~dport:443 1 2 ]
  in
  let minimal, calls =
    Quarantine.deep_analyze q ~app:"cumulative" (module Cumulative)
      App_sig.null_context ~history
  in
  T_util.checki "two causal events found" 2 (List.length minimal);
  T_util.checkb "oracle was consulted" true (calls > 0);
  List.iter
    (fun ev ->
      T_util.checkb "causal event quarantined" true
        (Quarantine.blocked q ~app:"cumulative" ev))
    minimal;
  T_util.checkb "innocent event untouched" false
    (Quarantine.blocked q ~app:"cumulative" (packet_in ~dport:22 1 2))

let test_deep_analyze_benign_history () =
  let q = Quarantine.create () in
  let minimal, calls =
    Quarantine.deep_analyze q ~app:"learning_switch"
      (module Apps.Learning_switch : Controller.App_sig.APP) App_sig.null_context
      ~history:[ packet_in 1 2 ]
  in
  T_util.checki "nothing found" 0 (List.length minimal);
  T_util.checki "no oracle effort" 0 calls

(* End to end: a deterministic bug that re-fires on the same event stops
   churning once the signature is quarantined. *)
let test_runtime_integration () =
  let q = Quarantine.create ~threshold:2 () in
  let config =
    {
      Runtime.default_config with
      Runtime.crashpad =
        {
          Crashpad.default_config with
          Crashpad.policy = Recovery_policy.uniform Recovery_policy.Absolute;
          Crashpad.quarantine = Some q;
        };
    }
  in
  let bug = Apps.Bug_model.make (Apps.Bug_model.On_tp_dst 6666) Apps.Bug_model.Crash in
  let net = Net.create (Clock.create ()) (Topo_gen.linear ~hosts_per_switch:1 2) in
  let rt = Runtime.create ~config net [ Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Learning_switch)) ] in
  Runtime.step rt;
  let poisoned = packet_in ~dport:6666 1 2 in
  for _ = 1 to 6 do
    Runtime.dispatch_event rt poisoned
  done;
  let m = Runtime.metrics rt in
  (* Crashes stop at the threshold; the remaining four deliveries are
     suppressed without ever reaching the app. *)
  T_util.checki "crash churn capped at threshold" 2 Metrics.(get m crashes);
  T_util.checki "signature quarantined once" 1 Metrics.(get m quarantined);
  T_util.checki "subsequent deliveries suppressed" 4 Metrics.(get m suppressed);
  (* Healthy traffic still flows to the app. *)
  Runtime.dispatch_event rt (packet_in 1 2);
  let box = Option.get (Runtime.sandbox rt "learning_switch") in
  T_util.checkb "app still serving" true (Sandbox.events_handled box > 0)

let suite =
  [
    Alcotest.test_case "threshold quarantines" `Quick test_threshold_quarantines;
    Alcotest.test_case "counting" `Quick test_counts;
    Alcotest.test_case "invalid threshold" `Quick test_invalid_threshold;
    Alcotest.test_case "deep analyze finds causal set" `Quick
      test_deep_analyze_quarantines_causal_set;
    Alcotest.test_case "deep analyze on benign history" `Quick
      test_deep_analyze_benign_history;
    Alcotest.test_case "runtime integration stops churn" `Quick test_runtime_integration;
  ]
