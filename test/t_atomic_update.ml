open Openflow
open Netsim
module Atomic_update = Legosdn.Atomic_update
module Netlog = Legosdn.Netlog
module Checker = Invariants.Checker
module Command = Controller.Command

type world = { net : Net.t; nl : Netlog.t; checker : Invariants.Incremental.t }

let setup () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 3) in
  ignore (Net.poll net);
  { net; nl = Netlog.create net; checker = Invariants.Incremental.create net }

let apply ?invariants w updates =
  Atomic_update.apply ?invariants ~checker:w.checker ~netlog:w.nl ~app:"op"
    updates

let mac h = Types.mac_of_host h

let path_update =
  [
    (1, Message.flow_add (Ofp_match.make ~dl_dst:(mac 2) ()) [ Action.Output 1 ]);
    (2, Message.flow_add (Ofp_match.make ~dl_dst:(mac 2) ()) [ Action.Output 100 ]);
  ]

let test_good_update_commits () =
  let w = setup () in
  (match apply w path_update with
  | Atomic_update.Committed -> ()
  | other -> Alcotest.failf "expected commit, got %s" (Atomic_update.describe other));
  T_util.checkb "path live" true (T_util.reachable w.net 1 2)

let test_bad_update_rolls_back_everything () =
  let w = setup () in
  (* Two good rules plus one that black-holes h2->h1 traffic. *)
  let update =
    path_update
    @ [ (2, Message.flow_add (Ofp_match.make ~dl_dst:(mac 1) ()) [ Action.Output 77 ]) ]
  in
  (match apply w update with
  | Atomic_update.Rolled_back (Atomic_update.Invariant_broken _) -> ()
  | other -> Alcotest.failf "expected invariant rollback, got %s" (Atomic_update.describe other));
  (* All-or-nothing: even the good rules are absent. *)
  List.iter
    (fun sid ->
      T_util.checki "nothing installed" 0
        (Flow_table.size (Net.switch w.net sid).Sw.table))
    [ 1; 2; 3 ]

let test_switch_rejection_rolls_back () =
  let w = setup () in
  Net.apply_fault w.net (Net.Switch_down 2);
  ignore (Net.poll w.net);
  (* s3's half is fine; the dead s2 rejects its half. The batch must not
     leave s3's rule behind. (No rule here routes toward the dead switch,
     so the hypothetical invariant screen passes.) *)
  let update =
    [
      (3, Message.flow_add (Ofp_match.make ~dl_dst:(mac 3) ()) [ Action.Output 100 ]);
      (2, Message.flow_add (Ofp_match.make ~dl_dst:(mac 2) ()) [ Action.Output 100 ]);
    ]
  in
  (match apply w update with
  | Atomic_update.Rolled_back (Atomic_update.Switch_rejected (2, _)) -> ()
  | other -> Alcotest.failf "expected rejection by s2, got %s" (Atomic_update.describe other));
  T_util.checki "s3's rule rolled back too" 0
    (Flow_table.size (Net.switch w.net 3).Sw.table)

let test_custom_invariants () =
  let w = setup () in
  (* An isolation policy between h1 and h3 vetoes a path between them. *)
  let invariants =
    Checker.Isolation { group_a = [ 1 ]; group_b = [ 3 ] } :: Checker.default
  in
  let update =
    [
      (1, Message.flow_add (Ofp_match.make ~dl_dst:(mac 3) ()) [ Action.Output 1 ]);
      (2, Message.flow_add (Ofp_match.make ~dl_dst:(mac 3) ()) [ Action.Output 2 ]);
      (3, Message.flow_add (Ofp_match.make ~dl_dst:(mac 3) ()) [ Action.Output 100 ]);
    ]
  in
  match apply ~invariants w update with
  | Atomic_update.Rolled_back (Atomic_update.Invariant_broken violations) ->
      T_util.checkb "isolation violation named" true
        (List.exists
           (function Checker.Isolation_breached _ -> true | _ -> false)
           violations)
  | other -> Alcotest.failf "expected isolation veto, got %s" (Atomic_update.describe other)

let test_preexisting_damage_not_blamed () =
  let w = setup () in
  (* Damage the network first, outside any transaction. *)
  ignore
    (Net.send w.net 3
       (Message.message
          (Message.Flow_mod
             (Message.flow_add (Ofp_match.make ~dl_dst:(mac 1) ()) [ Action.Output 99 ]))));
  match apply w path_update with
  | Atomic_update.Committed -> ()
  | other ->
      Alcotest.failf "pre-existing black hole wrongly blamed: %s"
        (Atomic_update.describe other)

let test_empty_update () =
  let w = setup () in
  match apply w [] with
  | Atomic_update.Committed -> ()
  | other -> Alcotest.failf "empty update must commit, got %s" (Atomic_update.describe other)

(* One case per refusal kind, committed into a transaction the caller
   already opened (an app delivery) and into a deferred one (an intent or
   operator update). A screen refuses before any switch is touched: an
   opened transaction aborts, leaving one aborted, empty journal entry; a
   deferred one leaves none. A switch rejects after the transaction opens,
   so its commands are in the aborted entry either way. *)
let test_refusals_and_the_journal () =
  let route sid dst port =
    Command.Flow
      (sid, Message.flow_add (Ofp_match.make ~dl_dst:(mac dst) ()) [ Action.Output port ])
  in
  let one_command =
    {
      Atomic_update.limits =
        { Legosdn.Resources.unlimited with Legosdn.Resources.max_commands_per_event = Some 1 };
      state_bytes = (fun () -> Alcotest.fail "state size read without a cap");
    }
  in
  let s2_down net =
    Net.apply_fault net (Net.Switch_down 2);
    ignore (Net.poll net)
  in
  let refusal : Atomic_update.outcome -> string = function
    | Committed -> "committed"
    | Rolled_back (Over_limits _) -> "over limits"
    | Rolled_back (Invariant_broken _) -> "invariant broken"
    | Rolled_back (Unreachable sid) -> Printf.sprintf "s%d unreachable" sid
    | Rolled_back (Switch_rejected (sid, _)) -> Printf.sprintf "s%d rejected" sid
  in
  let empty w sid = Flow_table.size (Net.switch w.net sid).Sw.table = 0 in
  let all_up _ = false in
  List.iter
    (fun (name, budget, unreachable, fault, commands, screened) ->
      List.iter
        (fun opened ->
          let label = Printf.sprintf "%s, %s txn" name (if opened then "opened" else "deferred") in
          let w = setup () in
          let journal = ref [] in
          Netlog.set_close_hook w.nl (fun e -> journal := e :: !journal);
          fault w.net;
          let txn =
            if opened then Atomic_update.Opened (Netlog.begin_txn w.nl ~app:"op")
            else Atomic_update.Deferred
          in
          Alcotest.(check string) label name
            (refusal
               (Atomic_update.commit ?budget ~unreachable ~checker:w.checker
                  ~netlog:w.nl ~replies:Atomic_update.Reject_errors ~app:"op" txn commands));
          T_util.checkb (label ^ ": nothing installed") true
            (List.for_all (empty w) [ 1; 2; 3 ]);
          Alcotest.(check (list (pair bool bool)))
            (label ^ ": journal (committed, empty)")
            (if not screened then [ (false, false) ] else if opened then [ (false, true) ] else [])
            (List.map
               (fun e -> (e.Netlog.je_committed, e.Netlog.je_ops = []))
               (List.rev !journal)))
        [ true; false ])
    [
      ("over limits", Some one_command, all_up, ignore, [ route 1 2 1; route 2 2 100 ], true);
      ("invariant broken", None, all_up, ignore, [ route 1 2 1; route 2 1 77 ], true);
      ("s3 unreachable", None, (fun sid -> sid = 3), ignore, [ route 1 2 1; route 3 3 100 ], true);
      ("s2 rejected", None, all_up, s2_down, [ route 3 3 100; route 2 2 100 ], false);
    ]

let suite =
  [
    Alcotest.test_case "good update commits" `Quick test_good_update_commits;
    Alcotest.test_case "bad update rolls back everything" `Quick
      test_bad_update_rolls_back_everything;
    Alcotest.test_case "switch rejection rolls back" `Quick test_switch_rejection_rolls_back;
    Alcotest.test_case "custom invariants veto" `Quick test_custom_invariants;
    Alcotest.test_case "pre-existing damage not blamed" `Quick
      test_preexisting_damage_not_blamed;
    Alcotest.test_case "empty update" `Quick test_empty_update;
    Alcotest.test_case "refusals and the journal" `Quick
      test_refusals_and_the_journal;
  ]
