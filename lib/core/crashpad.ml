open Openflow
open Controller

type config = {
  policy : Recovery_policy.t;
  invariants : Invariants.Checker.invariant list;
  timing : Detector.timing;
  limits : Resources.limits;
  quarantine : Quarantine.t option;
  intent : bool;
      (* When on, apps that declare a policy get (a) their compiled tables
         kept in sync with the network after healthy deliveries and (b) a
         policy-derived candidate rule-set tried first under an Equivalence
         compromise — installed only if it provably preserves the declared
         forwarding relation and the configured invariants. *)
}

let default_config =
  {
    policy = Recovery_policy.uniform Recovery_policy.Equivalence;
    invariants = Invariants.Checker.default;
    timing = Detector.default_timing;
    limits = Resources.unlimited;
    quarantine = None;
    intent = true;
  }

type deps = {
  engine : Txn_engine.t;
  incremental : Invariants.Incremental.t;
  context : unit -> App_sig.context;
  links_of : Types.switch_id -> Event.link list;
  metrics : Metrics.t;
  tickets : Ticket.store;
  now : unit -> float;
  enqueue_reply : string -> Event.t -> unit;
  unreachable : Types.switch_id -> bool;
  tracer : Obs.Tracer.t;
  batched_checkpoints : bool;
      (* The batch engine checkpoints every sandbox at batch entry and
         journals within the batch; the per-event prepare here is then
         redundant work, not a correctness requirement (recovery replays
         the intra-batch journal under the same frozen context the events
         were first delivered with). *)
}

let file_ticket deps sandbox ~event ~diagnosis ~resolution ~rolled_back =
  ignore
    (Ticket.file deps.tickets ~now:(deps.now ()) ~app:(Sandbox.name sandbox)
       ~event ~diagnosis ~resolution ~rolled_back_ops:rolled_back ())

let count_failure deps failure =
  Metrics.bump deps.metrics
    (match failure with
    | Detector.Fail_stop _ -> Metrics.crashes
    | Detector.Hang -> Metrics.hangs
    | Detector.Byzantine _ -> Metrics.byzantine
    | Detector.Unreachable _ -> Metrics.unreachable)

let failure_kind = function
  | Detector.Fail_stop _ -> "fail-stop"
  | Detector.Hang -> "hang"
  | Detector.Byzantine _ -> "byzantine"
  | Detector.Unreachable _ -> "unreachable"

(* Reply events (statistics) produced while applying commands go back to the
   issuing application as ordinary events. *)
let route_replies deps sandbox sid replies =
  List.iter
    (fun (reply : Message.t) ->
      match reply.payload with
      | Message.Stats_reply sr ->
          deps.enqueue_reply (Sandbox.name sandbox)
            (Event.Stats_reply (sid, reply.xid, sr))
      | Message.Flow_removed fr ->
          deps.enqueue_reply (Sandbox.name sandbox) (Event.Flow_removed (sid, fr))
      | _ -> ())
    replies

(* ---------------- declarative intent ---------------- *)

(* Recompile the app's declared policy against the current network view and
   diff it against what the network holds. The candidate diff is installed
   only after two independent checks: the compiled tables must agree with
   the policy's denotation on a probe set covering every rule (forwarding
   relation preserved), and the flow-mods must pass the invariant screen
   of the one commit path. *)
let sync_intent config deps sandbox =
  if not config.intent then `No_intent
  else
    let ctx = deps.context () in
    match Sandbox.declared_policy sandbox ctx with
    | None -> `No_intent
    | Some pol -> (
        let switches = App_sig.switches ctx in
        match Policy.compile ~switches pol with
        | exception Policy.Uncompilable _ -> `Rejected
        | tables -> (
            let mods =
              Policy.flow_mods ~prev:(Sandbox.intent_tables sandbox)
                ~next:tables
              (* Tables are declarative, idempotent state, so mods aimed at
                 switches that left the network (or whose channel is given
                 up on) are simply dropped — typically strict deletes for a
                 dead switch's rows, moot because its table died with it.
                 Unlike an app transaction there is no atomicity to lose:
                 the next reconciliation re-derives whatever remains. *)
              |> List.filter (fun (sid, _) ->
                     List.mem sid switches && not (deps.unreachable sid))
            in
            if mods = [] then begin
              (* Network already reflects the intent (or intent is empty). *)
              Sandbox.set_intent_tables sandbox tables;
              `Noop
            end
            else
              let ports sid = App_sig.switch_ports ctx sid in
              let probes = Policy.probes ~ports tables in
              if not (Policy.agrees ~ports ~switches pol tables ~probes) then
                `Rejected
              else
                match
                  Atomic_update.commit ~tracer:deps.tracer
                    ~invariants:config.invariants ~checker:deps.incremental
                    ~replies:(Atomic_update.Route (fun _ _ -> ()))
                    ~app:(Sandbox.name sandbox)
                    (Atomic_update.Deferred deps.engine)
                    (List.map (fun (sid, fm) -> Command.Flow (sid, fm)) mods)
                with
                | Atomic_update.Rolled_back _ -> `Rejected
                | Atomic_update.Committed ->
                    Sandbox.set_intent_tables sandbox tables;
                    `Installed (List.length mods)))

(* After a healthy commit: if the delivery moved the app's declared intent,
   push the (verified) diff out so hardware tracks intent continuously. *)
let reconcile_intent config deps sandbox =
  match sync_intent config deps sandbox with
  | `Installed _ -> Metrics.bump deps.metrics Metrics.policy_reconciles
  | `Rejected -> Metrics.bump deps.metrics Metrics.policy_rejected
  | `Noop | `No_intent -> ()

let recover config deps ~app failure boxes =
  count_failure deps failure;
  Metrics.add_app_downtime deps.metrics ~app
    (Detector.detection_delay config.timing failure);
  List.iter
    (fun box ->
      let r = Sandbox.recover ~tracer:deps.tracer box (deps.context ()) in
      Metrics.bump_by deps.metrics Metrics.replayed r.Sandbox.replayed;
      Metrics.bump_by deps.metrics Metrics.dropped_in_replay
        r.Sandbox.dropped_in_replay)
    boxes

let deliver deps box event =
  let attrs =
    if Obs.Tracer.enabled deps.tracer then [ ("app", Sandbox.name box) ] else []
  in
  Detector.of_verdict
    (Obs.Tracer.with_span deps.tracer ~attrs Obs.Span.App_handle (fun () ->
         Sandbox.deliver box (deps.context ()) event))

let commit_output config deps ~txn ~event ~revert ~contain owner commands =
  let budget =
    {
      Atomic_update.limits = config.limits;
      state_bytes = (fun () -> Sandbox.state_size owner);
    }
  in
  match
    Atomic_update.commit ~tracer:deps.tracer ~budget
      ~invariants:config.invariants ~unreachable:deps.unreachable
      ~checker:deps.incremental
      ~replies:(Atomic_update.Route (route_replies deps owner))
      ~app:(Sandbox.name owner) (Atomic_update.Opened txn) commands
  with
  | Atomic_update.Committed -> `Committed
  | Atomic_update.Rolled_back refusal -> (
      List.iter Sandbox.revert_last revert;
      let failed failure =
        count_failure deps failure;
        `Failed failure
      in
      match refusal with
      | Atomic_update.Over_limits breaches ->
          Metrics.bump deps.metrics Metrics.resource_breaches;
          file_ticket deps owner ~event
            ~diagnosis:
              (String.concat "; " (List.map Resources.describe breaches))
            ~resolution:Ticket.Blocked ~rolled_back:0;
          (* Contain the rogue app: restart it with fresh state. *)
          List.iter
            (fun box ->
              Sandbox.reboot box;
              Sandbox.checkpoint_now box)
            contain;
          `Contained
      | Atomic_update.Invariant_broken violations ->
          failed (Detector.Byzantine violations)
      | Atomic_update.Unreachable switch -> failed (Detector.Unreachable { switch })
      | Atomic_update.Switch_rejected _ ->
          (* [Route] replies never reject. *)
          assert false)

(* Deliver one event inside a fresh transaction. Returns [Ok ()] on commit,
   [Error (failure, rolled_back)] after an abort. The sandbox state has
   already been repaired (restore + replay) when [Error] is returned. *)
let attempt config deps sandbox event : (unit, Detector.failure * int) result =
  if not deps.batched_checkpoints then
    Sandbox.prepare ~tracer:deps.tracer sandbox;
  let txn = deps.engine.Txn_engine.begin_txn ~app:(Sandbox.name sandbox) in
  match deliver deps sandbox event with
  | Ok commands -> (
      match
        commit_output config deps ~txn ~event ~revert:[ sandbox ]
          ~contain:[ sandbox ] sandbox commands
      with
      | `Committed ->
          Sandbox.confirm sandbox event;
          reconcile_intent config deps sandbox;
          Ok ()
      | `Contained -> Ok ()
      | `Failed failure -> Error (failure, 0))
  | Error failure ->
      let attrs =
        if Obs.Tracer.enabled deps.tracer then
          [ ("phase", "replay"); ("failure", failure_kind failure) ]
        else []
      in
      Obs.Tracer.with_span deps.tracer ~attrs Obs.Span.Recovery (fun () ->
          (* Partial output escaped before the crash: it reached the
             network, so it must be in the transaction to be rolled back
             with it. *)
          (match failure with
          | Detector.Fail_stop { partial; _ } ->
              List.iter (fun cmd -> ignore (txn.Txn_engine.apply cmd)) partial
          | _ -> ());
          let rolled_back = List.length (txn.Txn_engine.issued ()) in
          txn.Txn_engine.abort ();
          recover config deps ~app:(Sandbox.name sandbox) failure [ sandbox ];
          Error (failure, rolled_back))

(* Try the equivalence alternatives in order; an alternative succeeds when
   every event in its sequence commits. No second-level transformation: a
   crash inside an alternative falls through to the next one. *)
let rec try_alternatives config deps sandbox = function
  | [] -> None
  | alternative :: rest ->
      let ok =
        List.for_all
          (fun ev ->
            match attempt config deps sandbox ev with
            | Ok () -> true
            | Error _ -> false)
          alternative
      in
      if ok then Some alternative
      else try_alternatives config deps sandbox rest

let compromise_name = function
  | Recovery_policy.No_compromise -> "no-compromise"
  | Recovery_policy.Absolute -> "absolute"
  | Recovery_policy.Equivalence -> "equivalence"

let apply_policy config deps sandbox event failure ~rolled_back =
  let diagnosis = Detector.describe failure in
  let compromise =
    Recovery_policy.decide config.policy ~app:(Sandbox.name sandbox)
      (Event.kind_of event)
  in
  let attrs =
    if Obs.Tracer.enabled deps.tracer then
      [
        ("phase", "policy");
        ("failure", failure_kind failure);
        ("compromise", compromise_name compromise);
      ]
    else []
  in
  Obs.Tracer.with_span deps.tracer ~attrs Obs.Span.Recovery @@ fun () ->
  match compromise with
  | Recovery_policy.No_compromise ->
      Sandbox.disable sandbox;
      Metrics.bump deps.metrics Metrics.disabled;
      Metrics.mark_app_down_from deps.metrics ~app:(Sandbox.name sandbox)
        (deps.now ());
      file_ticket deps sandbox ~event ~diagnosis ~resolution:Ticket.Disabled
        ~rolled_back
  | Recovery_policy.Absolute ->
      Metrics.bump deps.metrics Metrics.ignored;
      file_ticket deps sandbox ~event ~diagnosis ~resolution:Ticket.Ignored
        ~rolled_back
  | Recovery_policy.Equivalence -> (
      (* A declared policy is the strongest equivalence witness we have:
         recompile the intent from the recovered state and install the
         verified diff, compensating for the crashed delivery without
         replaying anything through the faulty code path. *)
      match sync_intent config deps sandbox with
      | `Installed n ->
          Metrics.bump deps.metrics Metrics.policy_compromises;
          Metrics.bump deps.metrics Metrics.transformed;
          file_ticket deps sandbox ~event ~diagnosis
            ~resolution:
              (Ticket.Transformed
                 (Printf.sprintf "policy-recompile(%s, %d flow-mods)"
                    (Sandbox.name sandbox) n))
            ~rolled_back
      | (`Rejected | `Noop | `No_intent) as r -> (
          if r = `Rejected then
            Metrics.bump deps.metrics Metrics.policy_rejected;
          (* Fall back to hand-coded event transformations. *)
          let alternatives =
            Transform.equivalents ~links_of:deps.links_of event
          in
          match try_alternatives config deps sandbox alternatives with
          | Some alternative ->
              Metrics.bump deps.metrics Metrics.transformed;
              file_ticket deps sandbox ~event ~diagnosis
                ~resolution:
                  (Ticket.Transformed (Transform.describe alternative))
                ~rolled_back
          | None ->
              (* No equivalent worked: fall back to ignoring the event. *)
              Metrics.bump deps.metrics Metrics.ignored;
              file_ticket deps sandbox ~event ~diagnosis
                ~resolution:Ticket.Ignored ~rolled_back))

let quarantine_blocked config deps sandbox event =
  match config.quarantine with
  | None -> false
  | Some q ->
      let hit = Quarantine.blocked q ~app:(Sandbox.name sandbox) event in
      if hit then Metrics.bump deps.metrics Metrics.suppressed;
      hit

let note_quarantine config deps sandbox event =
  match config.quarantine with
  | None -> ()
  | Some q -> (
      match Quarantine.note_failure q ~app:(Sandbox.name sandbox) event with
      | `Quarantined -> Metrics.bump deps.metrics Metrics.quarantined
      | `Recorded -> ())

let resolve config deps sandbox event failure ~rolled_back =
  note_quarantine config deps sandbox event;
  apply_policy config deps sandbox event failure ~rolled_back

let dispatch config deps sandbox event =
  if
    Sandbox.alive sandbox
    && Sandbox.subscribes_to sandbox (Event.kind_of event)
    && not (quarantine_blocked config deps sandbox event)
  then
    match attempt config deps sandbox event with
    | Ok () -> ()
    | Error (failure, rolled_back) ->
        resolve config deps sandbox event failure ~rolled_back
