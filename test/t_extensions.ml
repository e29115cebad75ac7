open Openflow
module Clone_runner = Legosdn.Clone_runner
module Sts = Legosdn.Sts
module Event = Controller.Event
module Command = Controller.Command
module App_sig = Controller.App_sig

let packet_in ?(sid = 1) src dst =
  Event.Packet_in
    ( sid,
      {
        Message.pi_buffer_id = None;
        pi_in_port = 100;
        pi_reason = Message.No_match;
        pi_packet = T_util.tcp_packet src dst;
      } )

let ctx = App_sig.null_context

let run_app (module A : App_sig.APP) events =
  let _final_state, commands =
    List.fold_left
      (fun (st, acc) ev ->
        let st', cmds = A.handle ctx st ev in
        (st', acc @ cmds))
      (A.init (), [])
      events
  in
  commands

(* Clone runner: a seeded probabilistic crasher. Distinct instances draw
   distinct coins, so the clone usually survives the primary's crash. *)
let test_clone_masks_nondeterministic_crash () =
  let bug =
    Apps.Bug_model.make
      (Apps.Bug_model.With_probability (0.4, 7))
      Apps.Bug_model.Crash
  in
  let module C =
    (val (module Clone_runner.Make
                   ((val Apps.Faulty.wrap ~bug (App_sig.app (module Apps.Hub)))))
       : App_sig.APP)
  in
  let crashes = ref 0 in
  let st = ref (C.init ()) in
  for i = 1 to 100 do
    match C.handle ctx !st (packet_in (1 + (i mod 3)) 2) with
    | st', _ -> st := st'
    | exception _ -> incr crashes
  done;
  (* Unmasked, p=0.4 over 100 events crashes ~40 times; through the clone
     both replicas must fail on the same event (~16%). Assert a big win. *)
  T_util.checkb "most crashes masked" true (!crashes < 30)

let test_clone_switchover_logged () =
  let module Always = struct
    type state = int

    let name = "always_dies_once"
    let subscriptions = [ Event.K_packet_in ]
    let init () = 0

    (* Crashes iff the state counter is even: primary (even) dies, clone
       advanced differently... to keep it deterministic, die on count 0
       only: primary dies on its first event; the clone — same state —
       would too. So instead: die when count = 0, and the wrapper feeds
       the clone only after the primary: both at 0. Not maskable. Use a
       global to make only the first call die. *)
    let fuse = ref true

    let handle _ st = function
      | Event.Packet_in _ ->
          if !fuse then begin
            fuse := false;
            failwith "first call dies"
          end
          else (st + 1, [])
      | _ -> (st, [])
  end in
  let module C = (val (module Clone_runner.Make (Always)) : App_sig.APP) in
  let cmds = run_app (module C) [ packet_in 1 2 ] in
  T_util.checkb "switchover logged" true
    (List.exists
       (function Command.Log s -> s = "always_dies_once+clone: switched over to clone" | _ -> false)
       cmds)

(* STS / delta debugging. *)

(* Crashes iff it has seen packets to both port 80 and port 443 — a
   cumulative, order-insensitive two-event bug. *)
module Two_event_bug = struct
  type state = { saw80 : bool; saw443 : bool }

  let name = "two_event_bug"
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
        if st.saw80 && st.saw443 then failwith "cumulative bug";
        (st, [])
    | _ -> (st, [])
end

let pkt_to dport =
  Event.Packet_in
    ( 1,
      {
        Message.pi_buffer_id = None;
        pi_in_port = 100;
        pi_reason = Message.No_match;
        pi_packet = Packet.tcp ~src_host:1 ~dst_host:2 ~dport ();
      } )

let noisy_trace =
  [ pkt_to 22; pkt_to 80; pkt_to 8080; pkt_to 53; pkt_to 443; pkt_to 25 ]

let test_crashes_on_detects () =
  T_util.checkb "full trace crashes" true
    (Sts.crashes_on (module Two_event_bug) ctx noisy_trace);
  T_util.checkb "benign trace does not" false
    (Sts.crashes_on (module Two_event_bug) ctx [ pkt_to 22; pkt_to 80 ])

let test_minimize_finds_the_pair () =
  let minimal, calls = Sts.minimize (module Two_event_bug) ctx noisy_trace in
  Alcotest.(check (list T_util.event_t)) "exactly the causal pair"
    [ pkt_to 80; pkt_to 443 ] minimal;
  T_util.checkb "oracle effort bounded" true (calls < 50)

let test_minimize_single_event_bug () =
  let module One = struct
    type state = unit

    let name = "one"
    let subscriptions = [ Event.K_packet_in ]
    let init () = ()

    let handle _ () = function
      | Event.Packet_in (_, pi) when pi.Message.pi_packet.Packet.tp_dst = 443 ->
          failwith "boom"
      | _ -> ((), [])
  end in
  let minimal, _ = Sts.minimize (module One) ctx noisy_trace in
  Alcotest.(check (list T_util.event_t)) "single culprit" [ pkt_to 443 ] minimal

let test_minimize_rejects_benign_trace () =
  Alcotest.check_raises "benign trace rejected"
    (Invalid_argument "Sts.minimize: the full trace does not crash the application")
    (fun () -> ignore (Sts.minimize (module Two_event_bug) ctx [ pkt_to 22 ]))

let test_checkpoint_selection () =
  let minimal = [ pkt_to 80 ] in
  T_util.checki "k=1: checkpoint right before the culprit" 1
    (Sts.checkpoint_to_roll_back_to ~trace:noisy_trace ~minimal ~checkpoint_every:1);
  T_util.checki "k=4: aligned snapshot" 0
    (Sts.checkpoint_to_roll_back_to ~trace:noisy_trace ~minimal ~checkpoint_every:4)

let prop_minimal_still_fails =
  QCheck2.Test.make ~name:"ddmin result still triggers the oracle" ~count:100
    QCheck2.Gen.(list_size (int_range 2 20) (int_range 0 9))
    (fun trace ->
      (* Oracle: fails iff the trace contains a 3 and a 7. *)
      let failing l = List.mem 3 l && List.mem 7 l in
      if not (failing trace) then true
      else begin
        let minimal, _ = Sts.minimize_with_oracle failing trace in
        failing minimal && List.length minimal <= List.length trace
      end)

let prop_minimal_is_1_minimal =
  QCheck2.Test.make ~name:"ddmin result is 1-minimal" ~count:100
    QCheck2.Gen.(list_size (int_range 2 15) (int_range 0 5))
    (fun trace ->
      let failing l = List.mem 3 l && List.mem 4 l in
      if not (failing trace) then true
      else begin
        let minimal, _ = Sts.minimize_with_oracle failing trace in
        (* Removing any single element stops the failure. *)
        List.for_all
          (fun i -> not (failing (List.filteri (fun j _ -> j <> i) minimal)))
          (List.init (List.length minimal) Fun.id)
      end)

let suite =
  [
    Alcotest.test_case "clone masks nondeterministic bug" `Quick
      test_clone_masks_nondeterministic_crash;
    Alcotest.test_case "clone switchover logged" `Quick test_clone_switchover_logged;
    Alcotest.test_case "crashes_on oracle" `Quick test_crashes_on_detects;
    Alcotest.test_case "ddmin finds causal pair" `Quick test_minimize_finds_the_pair;
    Alcotest.test_case "ddmin single event" `Quick test_minimize_single_event_bug;
    Alcotest.test_case "ddmin rejects benign trace" `Quick test_minimize_rejects_benign_trace;
    Alcotest.test_case "checkpoint selection" `Quick test_checkpoint_selection;
    QCheck_alcotest.to_alcotest prop_minimal_still_fails;
    QCheck_alcotest.to_alcotest prop_minimal_is_1_minimal;
  ]
