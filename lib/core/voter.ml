open Controller

(* ---------------- elections ---------------- *)

(* Log commands are diagnostics, not forwarding behaviour: two variants
   that differ only in what they log cast the same vote. *)
let canonical cmds =
  List.filter (function Command.Log _ -> false | _ -> true) cmds

type 'v ballot = { voter : 'v; commands : Command.t list }

type 'v election = {
  winners : 'v ballot list;
  losers : 'v ballot list;
  majority : bool;
}

let elect = function
  | [] -> None
  | ballots ->
      (* Group by canonical command set, preserving first-arrival order of
         both the groups and their members. *)
      let groups =
        List.fold_left
          (fun acc b ->
            let key = canonical b.commands in
            let rec add = function
              | [] -> [ (key, [ b ]) ]
              | (k, members) :: rest when k = key -> (k, b :: members) :: rest
              | g :: rest -> g :: add rest
            in
            add acc)
          [] ballots
        |> List.map (fun (k, members) -> (k, List.rev members))
      in
      (* Largest group wins; a tie goes to the earliest-arrived group (the
         strict [>] below never replaces an equal-sized earlier group). *)
      let _, winners =
        List.fold_left
          (fun ((best_n, _) as best) (k, members) ->
            let n = List.length members in
            if n > best_n then (n, (k, members)) else best)
          (0, ([], []))
          groups
        |> snd
      in
      let losers =
        List.filter (fun b -> not (List.memq b winners)) ballots
      in
      Some
        {
          winners;
          losers;
          majority = 2 * List.length winners > List.length ballots;
        }

(* ---------------- the sandboxed panel ---------------- *)

type config = { nv_replicas : int; nv_adaptive : bool; nv_shed_after : int }

let default_config = { nv_replicas = 3; nv_adaptive = true; nv_shed_after = 8 }

type variant = { box : Sandbox.t; resyncable : bool }

type t = {
  vname : string;
  variants : variant list;  (* primary first *)
  vcfg : config;
  installed : Crashpad.intent_record;  (* one network, so one record *)
  mutable panel : bool;  (* full panel, or shed to the primary alone *)
  mutable quiet : int;  (* consecutive clean unanimous elections *)
}

let create ?(config = default_config) ~make_ckpt specs =
  if specs = [] then invalid_arg "Voter.create: no variants";
  let variants =
    List.map
      (fun (app, resyncable) ->
        { box = Sandbox.create ~ckpt:(make_ckpt ()) app; resyncable })
      specs
  in
  let vname = Sandbox.name (List.hd variants).box in
  List.iter
    (fun v ->
      if Sandbox.name v.box <> vname then
        invalid_arg
          (Printf.sprintf "Voter.create: variant %s does not share name %s"
             (Sandbox.name v.box) vname))
    variants;
  (* One variant has nothing to vote with: it starts, and stays, shed. *)
  {
    vname;
    variants;
    vcfg = config;
    installed = Crashpad.new_intent_record ();
    panel = List.length variants > 1;
    quiet = 0;
  }

let name t = t.vname
let config t = t.vcfg
let sandboxes t = List.map (fun v -> v.box) t.variants
let primary_variant t = List.hd t.variants
let primary t = (primary_variant t).box
let panel_active t = t.panel
let intent_record t = t.installed

(* Ship the donor's snapshot bytes to every re-syncable recipient. *)
let ship (deps : Crashpad.deps) t ~donor recipients =
  let recipients =
    List.filter (fun r -> r.resyncable && r.box != donor.box) recipients
  in
  if donor.resyncable && recipients <> [] then begin
    let snap = Sandbox.snapshot_bytes donor.box in
    let logical = Bytes.length snap in
    List.iter
      (fun r ->
        Sandbox.restore_bytes r.box snap;
        Metrics.bump deps.Crashpad.metrics Metrics.nv_resyncs;
        Metrics.bump_by deps.Crashpad.metrics Metrics.nv_resync_bytes logical;
        Obs.Tracer.instant deps.Crashpad.tracer
          ~attrs:[ ("app", t.vname); ("bytes", string_of_int logical) ]
          Obs.Span.State_transfer)
      recipients
  end

(* The panel could not mask the failure, so the bundle fails once, as a
   solo app would — one compromise, one ticket — and the family
   re-converges on whatever state the compromise left the primary in. *)
let bundle_failed cfg deps t event failure =
  Crashpad.resolve cfg deps t.installed (primary t) event failure
    ~rolled_back:0;
  t.quiet <- 0;
  ship deps t ~donor:(primary_variant t) (List.tl t.variants)

let panel_dispatch (cfg : Crashpad.config) (deps : Crashpad.deps) t event =
  Metrics.bump deps.metrics Metrics.nv_events;
  let tracer = deps.tracer in
  let live =
    List.filter
      (fun v ->
        Sandbox.alive v.box
        && Sandbox.subscribes_to v.box (Event.kind_of event))
      t.variants
  in
  if not deps.batched_checkpoints then
    List.iter (fun v -> Sandbox.prepare ~tracer v.box) live;
  let attrs =
    if Obs.Tracer.enabled tracer then
      [ ("app", t.vname); ("live", string_of_int (List.length live)) ]
    else []
  in
  Obs.Tracer.with_span tracer ~attrs Obs.Span.Vote @@ fun () ->
  (* The transaction is opened before any delivery and commands are held
     in it only after the election: nothing a variant emits can reach the
     network before the vote. *)
  let txn = Netlog.begin_txn deps.netlog ~app:t.vname in
  let results =
    List.map (fun v -> (v, Crashpad.deliver deps v.box event)) live
  in
  let ballots =
    List.filter_map
      (function
        | v, Ok commands -> Some { voter = v; commands } | _, Error _ -> None)
      results
  in
  let casualties =
    List.filter_map
      (function v, Error failure -> Some (v, failure) | _, Ok _ -> None)
      results
  in
  match elect ballots with
  | None ->
      (* Every subscribed variant died on the event: one counted failure,
         one downtime charge, and every variant is repaired. *)
      let failure =
        match casualties with
        | (_, failure) :: _ -> failure
        | [] -> Detector.Hang (* unreachable: the gate checked a live primary *)
      in
      Netlog.abort deps.netlog txn;
      let attrs =
        if Obs.Tracer.enabled tracer then
          [ ("phase", "replay"); ("app", t.vname) ]
        else []
      in
      Obs.Tracer.with_span tracer ~attrs Obs.Span.Recovery (fun () ->
          Crashpad.recover cfg deps ~app:t.vname failure
            (List.map (fun (v, _) -> v.box) casualties));
      bundle_failed cfg deps t event failure
  | Some e -> (
      if not e.majority then Metrics.bump deps.metrics Metrics.nv_no_majority;
      let winner = List.hd e.winners in
      (* The elected output goes through exactly the screened commit a
         solo app's output does. *)
      match
        Crashpad.commit_output cfg deps ~txn ~event
          ~revert:(List.map (fun b -> b.voter.box) ballots)
          ~contain:(List.map (fun v -> v.box) live)
          winner.voter.box winner.commands
      with
      | `Contained -> t.quiet <- 0
      | `Failed failure -> bundle_failed cfg deps t event failure
      | `Committed ->
          List.iter (fun b -> Sandbox.confirm b.voter.box event) e.winners;
          Crashpad.reconcile_intent cfg deps t.installed winner.voter.box;
          (* Out-voted variants: output discarded, state reverted, then
             rebuilt from the majority snapshot. *)
          List.iter
            (fun b ->
              Sandbox.revert_last b.voter.box;
              Metrics.bump deps.metrics Metrics.nv_outvoted;
              Obs.Tracer.instant tracer
                ~attrs:[ ("app", t.vname) ]
                Obs.Span.Outvoted)
            e.losers;
          if e.losers <> [] then Metrics.bump deps.metrics Metrics.nv_masked;
          List.iter
            (fun (v, _) ->
              Metrics.bump deps.metrics Metrics.nv_variant_crashes;
              ignore (Sandbox.recover ~tracer v.box (deps.context ())))
            casualties;
          ship deps t ~donor:winner.voter
            (List.map (fun b -> b.voter) e.losers @ List.map fst casualties);
          if e.losers = [] && casualties = [] && e.majority then begin
            t.quiet <- t.quiet + 1;
            if
              t.vcfg.nv_adaptive
              && t.quiet >= t.vcfg.nv_shed_after
              && List.length t.variants > 1
            then begin
              t.panel <- false;
              Metrics.bump deps.metrics Metrics.nv_sheds
            end
          end
          else t.quiet <- 0)

(* Shed mode: the primary runs alone under ordinary Crash-Pad dispatch,
   as a solo app (a panel of one) always does. In a shed panel, any
   failure re-spins the full panel, re-synchronised from whatever state
   recovery left the primary in. *)
let shed_dispatch (cfg : Crashpad.config) (deps : Crashpad.deps) t event =
  match Crashpad.attempt cfg deps t.installed (primary t) event with
  | Ok () -> ()
  | Error (failure, rolled_back) ->
      Crashpad.resolve cfg deps t.installed (primary t) event failure
        ~rolled_back;
      if t.vcfg.nv_adaptive && List.length t.variants > 1 then begin
        t.panel <- true;
        t.quiet <- 0;
        Metrics.bump deps.metrics Metrics.nv_grows;
        ship deps t ~donor:(primary_variant t) (List.tl t.variants)
      end

let dispatch cfg deps t event =
  let p = primary t in
  if
    Sandbox.alive p
    && Sandbox.subscribes_to p (Event.kind_of event)
    && not (Crashpad.quarantine_blocked cfg deps p event)
  then
    if t.panel then panel_dispatch cfg deps t event
    else shed_dispatch cfg deps t event
