module Recovery_policy = Legosdn.Recovery_policy
module Config_lang = Legosdn.Config_lang
module Event = Controller.Event

let test_default_policy () =
  let p = Recovery_policy.make [] in
  T_util.checkb "default is equivalence" true
    (Recovery_policy.decide p ~app:"x" Event.K_packet_in = Recovery_policy.Equivalence)

let test_first_match_wins () =
  let p =
    Recovery_policy.make
      [
        { Recovery_policy.app = Some "fw"; kind = None; action = Recovery_policy.No_compromise };
        { Recovery_policy.app = Some "fw"; kind = Some Event.K_tick; action = Recovery_policy.Absolute };
      ]
  in
  T_util.checkb "earlier rule shadows later" true
    (Recovery_policy.decide p ~app:"fw" Event.K_tick = Recovery_policy.No_compromise)

let test_wildcards () =
  let p =
    Recovery_policy.make ~default:Recovery_policy.Absolute
      [
        { Recovery_policy.app = None; kind = Some Event.K_switch_down; action = Recovery_policy.No_compromise };
        { Recovery_policy.app = Some "lb"; kind = None; action = Recovery_policy.Equivalence };
      ]
  in
  T_util.checkb "kind wildcard matches any app" true
    (Recovery_policy.decide p ~app:"whatever" Event.K_switch_down = Recovery_policy.No_compromise);
  T_util.checkb "app rule" true
    (Recovery_policy.decide p ~app:"lb" Event.K_packet_in = Recovery_policy.Equivalence);
  T_util.checkb "fallthrough to default" true
    (Recovery_policy.decide p ~app:"other" Event.K_packet_in = Recovery_policy.Absolute)

let test_uniform () =
  let p = Recovery_policy.uniform Recovery_policy.No_compromise in
  List.iter
    (fun kind ->
      T_util.checkb "uniform answers the same" true
        (Recovery_policy.decide p ~app:"any" kind = Recovery_policy.No_compromise))
    Event.all_kinds

let example_text =
  {|
# security apps must never be compromised
app firewall event * => no-compromise
app * event switch_down => equivalence
app learning_switch event packet_in => absolute   # drop poisoned packets
default => equivalence
|}

(* Policy lines are config directives: a file of them alone parses as a
   whole configuration carrying that policy. *)
let policy_of text =
  Result.map
    (fun (c : Legosdn.Runtime.config) ->
      c.Legosdn.Runtime.crashpad.Legosdn.Crashpad.policy)
    (Config_lang.parse text)

let test_parse_example () =
  match policy_of example_text with
  | Error e -> Alcotest.failf "parse error: %a" Config_lang.pp_error e
  | Ok p ->
      T_util.checki "three rules" 3 (List.length (Recovery_policy.rules p));
      T_util.checkb "firewall protected" true
        (Recovery_policy.decide p ~app:"firewall" Event.K_packet_in = Recovery_policy.No_compromise);
      T_util.checkb "switch_down transformed for others" true
        (Recovery_policy.decide p ~app:"router" Event.K_switch_down = Recovery_policy.Equivalence);
      T_util.checkb "ls packet_in dropped" true
        (Recovery_policy.decide p ~app:"learning_switch" Event.K_packet_in = Recovery_policy.Absolute)

let test_parse_errors () =
  (match policy_of "app x => nope" with
  | Error e -> T_util.checki "error on line 1" 1 e.Config_lang.line
  | Ok _ -> Alcotest.fail "should not parse");
  (match policy_of "app x event packet_in => sorta" with
  | Error e ->
      T_util.checkb "names the bad compromise" true
        (String.length e.Config_lang.message > 0)
  | Ok _ -> Alcotest.fail "bad compromise accepted");
  (match policy_of "app x event nonsense_kind => absolute" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad kind accepted");
  match policy_of "default => absolute\ndefault => equivalence" with
  | Error e -> T_util.checki "duplicate default flagged" 2 e.Config_lang.line
  | Ok _ -> Alcotest.fail "duplicate default accepted"

let suite =
  [
    Alcotest.test_case "default policy" `Quick test_default_policy;
    Alcotest.test_case "first match wins" `Quick test_first_match_wins;
    Alcotest.test_case "wildcards" `Quick test_wildcards;
    Alcotest.test_case "uniform policy" `Quick test_uniform;
    Alcotest.test_case "parse example" `Quick test_parse_example;
    Alcotest.test_case "parse errors located" `Quick test_parse_errors;
  ]
