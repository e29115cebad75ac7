(* The oracle suite: properties the whole system must satisfy at quiescent
   points of a scenario run. [Mid] checks run after every scheduled action
   (faults may still be active, channels lossy); [Final] checks run once
   the runner has healed every channel and switch and let the recovery
   machinery settle, so they can demand full convergence. *)

module Net = Netsim.Net
module Topology = Netsim.Topology
module Checker = Invariants.Checker
module Snapshot = Invariants.Snapshot
module Runtime = Legosdn.Runtime
module Reliable = Legosdn.Reliable
module Metrics = Legosdn.Metrics
module Recovery_policy = Legosdn.Recovery_policy
module Sandbox = Legosdn.Sandbox

type phase = Mid | Final

type ctx = {
  spec : Spec.t;
  rt : Runtime.t;
  net : Net.t;
  cluster : Cluster.t option;
      (* present when the spec runs replicated (replicas > 1) *)
  phase : phase;
  elapsed : float;  (* virtual seconds since the run started *)
}

type verdict = Pass | Fail of string

type t = { name : string; check : ctx -> verdict }

let failf fmt = Format.ksprintf (fun s -> Fail s) fmt

(* (a) Data-plane invariants. Loop freedom and the absence of match-all
   drop rules must hold at every quiescent point: the generator only draws
   acyclic topologies and byzantine output is screened before commit, so
   not even an injected bug may break them. Black-hole freedom is only
   demanded at the end of a clean (traffic-only) run — a mid-run link
   flap legitimately strands rules that point at a dead port.

   The check runs through the runtime's incremental engine — the same one
   screening Crash-Pad transactions — so every quiescent point also
   exercises its cache against live fault sequences; its results are
   proven equal to a full [Checker.check] on a fresh snapshot by the
   equivalence property in the test suite. *)
let invariants =
  {
    name = "invariants";
    check =
      (fun ctx ->
        let invs =
          match ctx.phase with
          | Mid -> [ Checker.Loop_freedom; Checker.No_drop_all ]
          | Final ->
              if Spec.is_clean ctx.spec then
                [
                  Checker.Loop_freedom;
                  Checker.No_drop_all;
                  Checker.Black_hole_freedom;
                ]
              else [ Checker.Loop_freedom; Checker.No_drop_all ]
        in
        match
          Invariants.Incremental.check ~invariants:invs
            (Runtime.incremental ctx.rt)
        with
        | [] -> Pass
        | v :: _ as all ->
            Fail
              (Format.asprintf "%d violation(s), first: %a" (List.length all)
                 Checker.pp_violation v));
  }

(* (b) Shadow intent vs. actual flow tables. Once every channel is healed
   and retransmission has settled, the reliable layer's intent tables and
   the switches' real tables must agree rule-for-rule — this is the
   end-to-end correctness claim of [Reliable]. *)
let convergence =
  {
    name = "convergence";
    check =
      (fun ctx ->
        match (ctx.phase, Runtime.reliable ctx.rt) with
        | Mid, _ | _, None -> Pass
        | Final, Some rel ->
            if not (Reliable.config rel).Reliable.enabled then Pass
            else
              let d = Reliable.divergence rel in
              if d = 0 then Pass
              else failf "%d rule(s) differ between shadow intent and switches" d);
  }

(* (c) Transaction atomicity under loss. Every message NetLog emitted —
   forward operations and rollback compensations alike — must have been
   delivered and barrier-acked by the end of a healed run: nothing may
   stay half-committed in the retransmission queue, and no switch may
   still be written off as unreachable. *)
let atomicity =
  {
    name = "atomicity";
    check =
      (fun ctx ->
        match (ctx.phase, Runtime.reliable ctx.rt) with
        | Mid, _ | _, None -> Pass
        | Final, Some rel ->
            if not (Reliable.config rel).Reliable.enabled then Pass
            else begin
              let pending = Reliable.pending_count rel in
              let degraded =
                List.filter
                  (Reliable.is_degraded rel)
                  (Topology.switches (Net.topology ctx.net))
              in
              if pending > 0 then
                failf "%d un-acked message(s) after heal+settle" pending
              else
                match degraded with
                | [] -> Pass
                | sids ->
                    failf "switch(es) still degraded after heal: %s"
                      (String.concat ","
                         (List.map string_of_int sids))
            end);
  }

(* (d) Metrics self-consistency. Availability is a ratio; downtime can
   only come from detection delays (bounded by the hang timeout per
   failure) plus real disabled time (bounded by the elapsed clock); every
   policy resolution corresponds to a detected failure; and Crashpad files
   exactly one ticket per resolution or resource breach. *)
let metrics =
  {
    name = "metrics";
    check =
      (fun ctx ->
        let m = Runtime.metrics ctx.rt in
        let get = Metrics.get m in
        let failures =
          get Metrics.crashes + get Metrics.hangs + get Metrics.byzantine
          + get Metrics.unreachable
        in
        let resolutions =
          get Metrics.ignored + get Metrics.transformed + get Metrics.disabled
        in
        let max_detection = 0.5 (* > heartbeat_interval * heartbeat_misses *) in
        let bad_app =
          List.find_map
            (fun app ->
              let avail = Metrics.availability m ~app ~until:ctx.elapsed in
              let down = Metrics.app_downtime m ~app ~until:ctx.elapsed in
              let bound =
                ctx.elapsed
                +. (float (get Metrics.crashes + get Metrics.hangs)
                   *. max_detection)
                +. 1e-9
              in
              if avail < 0. || avail > 1. then
                Some
                  (Printf.sprintf "availability(%s)=%f out of [0,1]" app avail)
              else if down > bound then
                Some
                  (Printf.sprintf "downtime(%s)=%.3f exceeds bound %.3f" app
                     down bound)
              else None)
            ctx.spec.Spec.apps
        in
        match bad_app with
        | Some msg -> Fail msg
        | None ->
            if resolutions > failures then
              failf "%d resolutions for only %d detected failures" resolutions
                failures
            else
              let tickets = List.length (Runtime.tickets ctx.rt) in
              let expected = resolutions + get Metrics.resource_breaches in
              if tickets <> expected then
                failf "%d tickets filed but %d resolutions+breaches" tickets
                  expected
              else Pass);
  }

(* (e) The controller outlives every app failure. An exception escaping
   Runtime.step/tick is converted into a failure by the runner before the
   oracles run; here we additionally demand that under any policy other
   than No_compromise, no sandbox ended up disabled — Crashpad must have
   absorbed the failure without giving the app up. *)
let controller_survives =
  {
    name = "controller-survives";
    check =
      (fun ctx ->
        if ctx.spec.Spec.policy = Recovery_policy.No_compromise then Pass
        else
          match
            List.filter
              (fun b -> not (Sandbox.alive b))
              (Runtime.sandboxes ctx.rt)
          with
          | [] -> Pass
          | dead ->
              failf "sandbox(es) dead under %s policy: %s"
                (Recovery_policy.compromise_name ctx.spec.Spec.policy)
                (String.concat "," (List.map Sandbox.name dead)));
  }

(* (f) Fail-over sanity for replicated runs. After healing and settling,
   the cluster must have exactly one live leader, every live replica must
   agree on term and commit index, and — if the armed leader kill actually
   fired — a successor must have taken over. The end-to-end half of the
   property (the kill-run delivers the same packets to their destinations
   as a never-killed run) is a differential check the runner performs,
   reported under this oracle's name. *)
let leader_failover =
  {
    name = "leader-failover";
    check =
      (fun ctx ->
        match (ctx.cluster, ctx.phase) with
        | None, _ | _, Mid -> Pass
        | Some c, Final -> (
            match Cluster.alive_leaders c with
            | [] -> Fail "no live leader after heal+settle"
            | _ :: _ :: _ as ids ->
                failf "%d live leaders after heal+settle: %s"
                  (List.length ids)
                  (String.concat "," (List.map string_of_int ids))
            | [ _ ] ->
                if not (Cluster.converged c) then
                  Fail
                    "live replicas disagree on term/commit after heal+settle"
                else if
                  Cluster.kills c > 0 && Cluster.failovers c = 0
                then Fail "leader was killed but no successor took over"
                else Pass));
  }

(* (g) N-version masking. The panel counters must stay self-consistent on
   every run (a masked event implies at least one outvoted ballot; no
   counter may move on a solo spec), and on the byz-variant plant — a
   seated byzantine variant, lossless channels, guaranteed traffic — the
   run must end with at least one output actually masked: the plant is
   the proof the voting layer screens byzantine output, not just that it
   runs. *)
let nversion_masking =
  {
    name = "nversion-masking";
    check =
      (fun ctx ->
        let m = Runtime.metrics ctx.rt in
        let events = Metrics.get m Metrics.nv_events in
        let masked = Metrics.get m Metrics.nv_masked in
        let outvoted = Metrics.get m Metrics.nv_outvoted in
        if ctx.spec.Spec.nversion <= 1 then
          if events + masked + outvoted > 0 then
            failf "panel counters moved on a solo spec (events=%d)" events
          else Pass
        else if masked > events then
          failf "nv_masked=%d exceeds nv_events=%d" masked events
        else if outvoted < masked then
          failf "nv_outvoted=%d below nv_masked=%d" outvoted masked
        else
          match ctx.phase with
          | Mid -> Pass
          | Final ->
              if
                Spec.has_byz_variant ctx.spec
                && ctx.spec.Spec.base_loss = 0.
                && masked = 0
              then Fail "byzantine variant seated but nothing was ever masked"
              else Pass);
  }

let all =
  [ invariants; convergence; atomicity; metrics; controller_survives;
    leader_failover; nversion_masking ]

let names = List.map (fun o -> o.name) all

let find name = List.find_opt (fun o -> o.name = name) all

(* Select a subset by name; unknown names are an error so a typo in
   --oracles does not silently run nothing. *)
let select names =
  List.map
    (fun n ->
      match find n with
      | Some o -> o
      | None ->
          invalid_arg
            (Printf.sprintf "unknown oracle %S (known: %s)" n
               (String.concat ", " (List.map (fun o -> o.name) all))))
    names
