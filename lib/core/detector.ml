open Controller
module Checker = Invariants.Checker

type failure =
  | Fail_stop of { detail : string; partial : Command.t list }
  | Hang
  | Byzantine of Checker.violation list
  | Unreachable of { switch : Openflow.Types.switch_id }

type timing = {
  rpc_timeout : float;
  heartbeat_interval : float;
  heartbeat_misses : int;
}

let default_timing =
  { rpc_timeout = 0.05; heartbeat_interval = 0.1; heartbeat_misses = 3 }

let detection_delay timing = function
  | Fail_stop _ -> timing.rpc_timeout
  | Hang -> timing.heartbeat_interval *. float timing.heartbeat_misses
  | Byzantine _ -> 0.
  | Unreachable _ -> timing.rpc_timeout

let of_verdict = function
  | Sandbox.Done commands -> Ok commands
  | Sandbox.Crashed { partial; detail } -> Error (Fail_stop { detail; partial })
  | Sandbox.Hung -> Error Hang

let describe = function
  | Fail_stop { detail; partial } ->
      if partial = [] then Printf.sprintf "fail-stop: %s" detail
      else
        Printf.sprintf "fail-stop: %s (%d commands already issued)" detail
          (List.length partial)
  | Hang -> "hang (heart-beat loss)"
  | Byzantine violations ->
      Format.asprintf "byzantine: %a"
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
           Checker.pp_violation)
        violations
  | Unreachable { switch } ->
      Printf.sprintf "unreachable: switch %d control channel down" switch
