open Openflow
open Controller
module Checker = Invariants.Checker

type refusal =
  | Over_limits of Resources.breach list
  | Invariant_broken of Checker.violation list
  | Unreachable of Types.switch_id
  | Switch_rejected of Types.switch_id * string

type outcome = Committed | Rolled_back of refusal
type budget = { limits : Resources.limits; state_bytes : unit -> int }
type txn = Opened of Netlog.txn | Deferred

type replies =
  | Route of (Types.switch_id -> Message.t list -> unit)
  | Reject_errors

let switch_of_command = function
  | Command.Flow (sid, _) | Command.Packet (sid, _) | Command.Port (sid, _)
  | Command.Stats (sid, _) ->
      Some sid
  | Command.Log _ -> None

let flow_mods commands =
  List.filter_map
    (function Command.Flow (sid, fm) -> Some (sid, fm) | _ -> None)
    commands

let screen ?(tracer = Obs.Tracer.noop) ?budget ?(invariants = Checker.default)
    ?(unreachable = fun _ -> false) ~checker commands =
  let breaches =
    match budget with
    | None -> []
    | Some { limits; state_bytes } ->
        Resources.check limits ~state_bytes
          ~commands_emitted:(List.length commands)
  in
  if breaches <> [] then Some (Over_limits breaches)
  else
    (* Hypothetical: the checker applies the mods to its own snapshot, so
       the screen runs before NetLog applies anything. *)
    let violations =
      match flow_mods commands with
      | [] -> []
      | mods ->
          let attrs =
            if Obs.Tracer.enabled tracer then
              [ ("mods", string_of_int (List.length mods)) ]
            else []
          in
          Obs.Tracer.with_span tracer ~attrs Obs.Span.Detection (fun () ->
              Invariants.Incremental.check_flow_mods ~invariants checker mods)
    in
    if violations <> [] then Some (Invariant_broken violations)
    else
      List.find_map
        (fun cmd ->
          match switch_of_command cmd with
          | Some sid when unreachable sid -> Some (Unreachable sid)
          | Some _ | None -> None)
        commands

let first_error sid replies =
  List.find_map
    (fun (reply : Message.t) ->
      match reply.payload with
      | Message.Error (_, text) -> Some (Switch_rejected (sid, text))
      | _ -> None)
    replies

let commit ?(tracer = Obs.Tracer.noop) ?budget ?invariants ?unreachable
    ~checker ~netlog ~replies ~app txn commands =
  match screen ~tracer ?budget ?invariants ?unreachable ~checker commands with
  | Some refusal ->
      (match txn with Opened txn -> Netlog.abort netlog txn | Deferred -> ());
      Rolled_back refusal
  | None ->
      let attrs =
        if Obs.Tracer.enabled tracer then
          [ ("app", app); ("commands", string_of_int (List.length commands)) ]
        else []
      in
      Obs.Tracer.with_span tracer ~attrs Obs.Span.Txn_commit (fun () ->
          let txn =
            match txn with
            | Opened txn -> txn
            | Deferred -> Netlog.begin_txn netlog ~app
          in
          let rejection = ref None in
          List.iter
            (fun cmd ->
              if !rejection = None then
                let answers = Netlog.apply netlog txn cmd in
                match (switch_of_command cmd, replies) with
                | Some sid, Route route -> route sid answers
                | Some sid, Reject_errors -> rejection := first_error sid answers
                | None, _ -> ())
            commands;
          match !rejection with
          | Some refusal ->
              Netlog.abort netlog txn;
              Rolled_back refusal
          | None ->
              Netlog.commit netlog txn;
              Committed)

let apply ?tracer ?invariants ~checker ~netlog ~app updates =
  commit ?tracer ?invariants ~checker ~netlog ~replies:Reject_errors ~app
    Deferred
    (List.map (fun (sid, fm) -> Command.Flow (sid, fm)) updates)

let describe = function
  | Committed -> "committed"
  | Rolled_back (Over_limits breaches) ->
      "rolled back: "
      ^ String.concat "; " (List.map Resources.describe breaches)
  | Rolled_back (Invariant_broken violations) ->
      Format.asprintf "rolled back: %a"
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
           Checker.pp_violation)
        violations
  | Rolled_back (Unreachable sid) ->
      Format.asprintf "rolled back: %a is unreachable" Types.pp_switch sid
  | Rolled_back (Switch_rejected (sid, text)) ->
      Format.asprintf "rolled back: %a rejected the update (%s)"
        Types.pp_switch sid text
