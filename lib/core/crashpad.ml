open Openflow
open Controller

type config = {
  policy : Recovery_policy.t;
  invariants : Invariants.Checker.invariant list;
  timing : Detector.timing;
  limits : Resources.limits;
  quarantine : Quarantine.t option;
}

let default_config =
  {
    policy = Recovery_policy.uniform Recovery_policy.Equivalence;
    invariants = Invariants.Checker.default;
    timing = Detector.default_timing;
    limits = Resources.unlimited;
    quarantine = None;
  }

type deps = {
  netlog : Netlog.t;
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

(* What the network holds for one application's declared intent. It
   tracks switch state, not app state: reboots, restores and re-syncs
   leave it alone because the rules stay in the switches. *)
type intent_record = {
  mutable shares : (Types.switch_id * (Policy.t * Policy.table option)) list;
      (* Per switch of the last install, in its switch-list order: the
         switch's share of the policy ([Policy.restrict]) and the table
         compiled from it, [None] when the share compiles to no row. *)
  mutable source : (Policy.t * Types.switch_id list) option;
      (* The policy and switch list [shares] were taken from, when every
         entry is exactly that compile; [None] after any other write. *)
}

let new_intent_record () = { shares = []; source = None }

let tables_of shares = List.filter_map (fun (_, (_, table)) -> table) shares
let intent_tables r = tables_of r.shares

(* The switch's table died with it, so its share goes too: the next
   reconcile finds no share for it and recompiles its table in full. The
   pruned record is no longer a compile of anything, so it drops its
   source, and that reconcile runs even if policy and switches look
   unchanged, as they do after a reboot inside one poll round. *)
let forget_switch r sid =
  if List.mem_assoc sid r.shares then begin
    r.shares <- List.remove_assoc sid r.shares;
    r.source <- None
  end

(* Compile the app's declared policy over the connected switches and diff
   it against what the network holds, switch by switch: a switch whose
   share of the policy is the one its installed table came from keeps
   that table and is neither compiled nor checked again. The changed
   switches' diff is installed only after two independent checks: the
   tables of the switches it touches must agree with the policy's
   denotation on a probe set covering every rule (forwarding relation
   preserved), and the flow-mods must pass the invariant screen of the
   one commit path. *)
let install_intent config deps record sandbox ctx ((pol, switches) as source) =
  match
    List.map
      (fun sw ->
        let share = Policy.restrict sw pol in
        match List.assoc_opt sw record.shares with
        | Some ((installed, _) as entry) when installed = share ->
            (sw, entry, false)
        | _ -> (sw, (share, Policy.compile_share sw share), true))
      switches
  with
  | exception Policy.Uncompilable _ -> `Rejected
  | entries -> (
      let recompiled =
        List.filter_map
          (fun (sw, entry, fresh) -> if fresh then Some (sw, entry) else None)
          entries
      in
      let next = tables_of recompiled in
      let mods =
        Policy.flow_mods
          ~prev:
            (tables_of
               (List.filter
                  (fun (sw, _) -> List.mem_assoc sw recompiled)
                  record.shares))
          ~next
        (* Tables are declarative, idempotent state, so mods aimed at
           switches whose channel is given up on are simply dropped. A
           switch that left the network is not diffed at all: its table
           died with it, and its entry leaves the record. Unlike an app
           transaction there is no atomicity to lose: the next
           reconciliation re-derives whatever remains. *)
        |> List.filter (fun (sid, _) -> not (deps.unreachable sid))
      in
      let installed () =
        record.shares <- List.map (fun (sw, entry, _) -> (sw, entry)) entries;
        record.source <- Some source
      in
      if mods = [] then begin
        (* Network already reflects the intent (or intent is empty). *)
        installed ();
        `Noop
      end
      else
        let ports sid = App_sig.switch_ports ctx sid in
        let sent =
          List.filter
            (fun (tbl : Policy.table) -> List.mem_assoc tbl.Policy.t_sw mods)
            next
        in
        let probes = Policy.probes ~ports sent in
        if not (Policy.agrees ~ports pol sent ~probes) then `Rejected
        else
          match
            Atomic_update.commit ~tracer:deps.tracer
              ~invariants:config.invariants ~checker:deps.incremental
              ~netlog:deps.netlog
              ~replies:(Atomic_update.Route (fun _ _ -> ()))
              ~app:(Sandbox.name sandbox) Atomic_update.Deferred
              (List.map (fun (sid, fm) -> Command.Flow (sid, fm)) mods)
          with
          | Atomic_update.Rolled_back _ -> `Rejected
          | Atomic_update.Committed ->
              installed ();
              `Installed (List.length mods))

(* Reconcile the network with the app's declared intent. When the policy
   and the switch list equal the source of the installed record, nothing
   is compiled: [compile] is a function of the two, so it would rebuild
   the installed tables and diff to nothing. A rejection records no
   source, so it is re-derived and counted every time. *)
let sync_intent config deps record sandbox =
  let ctx = deps.context () in
  match Sandbox.declared_policy sandbox ctx with
  | None -> `No_intent
  | Some pol ->
      let source = (pol, App_sig.switches ctx) in
      if record.source = Some source then `Noop
      else install_intent config deps record sandbox ctx source

(* After a healthy commit: if the delivery moved the app's declared intent,
   push the (verified) diff out so hardware tracks intent continuously. *)
let reconcile_intent config deps record sandbox =
  match sync_intent config deps record sandbox with
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
      ~checker:deps.incremental ~netlog:deps.netlog
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
let attempt config deps record sandbox event :
    (unit, Detector.failure * int) result =
  if not deps.batched_checkpoints then
    Sandbox.prepare ~tracer:deps.tracer sandbox;
  let txn = Netlog.begin_txn deps.netlog ~app:(Sandbox.name sandbox) in
  match deliver deps sandbox event with
  | Ok commands -> (
      match
        commit_output config deps ~txn ~event ~revert:[ sandbox ]
          ~contain:[ sandbox ] sandbox commands
      with
      | `Committed ->
          Sandbox.confirm sandbox event;
          reconcile_intent config deps record sandbox;
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
              List.iter
                (fun cmd -> ignore (Netlog.apply deps.netlog txn cmd))
                partial
          | _ -> ());
          let undone = Netlog.ops_rolled_back deps.netlog in
          Netlog.abort deps.netlog txn;
          let rolled_back = Netlog.ops_rolled_back deps.netlog - undone in
          recover config deps ~app:(Sandbox.name sandbox) failure [ sandbox ];
          Error (failure, rolled_back))

(* Try the equivalence alternatives in order; an alternative succeeds when
   every event in its sequence commits. No second-level transformation: a
   crash inside an alternative falls through to the next one. *)
let rec try_alternatives config deps record sandbox = function
  | [] -> None
  | alternative :: rest ->
      let ok =
        List.for_all
          (fun ev ->
            match attempt config deps record sandbox ev with
            | Ok () -> true
            | Error _ -> false)
          alternative
      in
      if ok then Some alternative
      else try_alternatives config deps record sandbox rest

let compromise_name = function
  | Recovery_policy.No_compromise -> "no-compromise"
  | Recovery_policy.Absolute -> "absolute"
  | Recovery_policy.Equivalence -> "equivalence"

let apply_policy config deps record sandbox event failure ~rolled_back =
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
      match sync_intent config deps record sandbox with
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
          match try_alternatives config deps record sandbox alternatives with
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

let resolve config deps record sandbox event failure ~rolled_back =
  note_quarantine config deps sandbox event;
  apply_policy config deps record sandbox event failure ~rolled_back
