(* The per-layer breakdown of a traced run, named after the modules each
   layer covers. Runtime span kinds map onto layers, and every kind also
   gets a [span.<kind>.self_s] row of its own, so kinds added later show
   up without touching this file. *)

module Span = Obs.Span

(* Every app any workload runs: all workloads report the same rows. *)
let app_names =
  [
    "spanning_tree";
    "arp_responder";
    "learning_switch";
    "firewall";
    "monitor";
    "policy_router";
  ]

let rows ~self ~spans ~inclusive ~sent ~queued ~delta ~loop_s ~dropped
    ~setup_shed ~flow_entries ~failed_frac =
  let get tbl key = Option.value (Hashtbl.find_opt tbl key) ~default:0. in
  let layer k = "span." ^ Span.kind_name k in
  let self_of k = get self (layer k) and count_of k = get spans (layer k) in
  let ratio a b = if b > 0. then a /. b else 0. in
  let secs n v = (n, v, "s") and count n v = (n, v, "count") in
  let frac n v = (n, v, "ratio") in
  let app_rows =
    List.concat_map
      (fun a ->
        let h = "apps." ^ a ^ ".handle" and p = "apps." ^ a ^ ".policy" in
        [
          secs (h ^ "_s") (get self h);
          count (h ^ "_calls") (get spans h);
          secs (p ^ "_s") (get self p);
          count (p ^ "_calls") (get spans p);
        ])
      app_names
  in
  let app_sum suffix =
    List.fold_left
      (fun acc (n, v, _) ->
        if String.ends_with ~suffix n then acc +. v else acc)
      0. app_rows
  in
  let screens = count_of Span.Detection in
  let hits = delta "inv.hits" and misses = delta "inv.misses" in
  let ckpt_hits = delta "metrics.ckpt-chunk-hits"
  and ckpt_misses = delta "metrics.ckpt-chunk-misses" in
  let installs =
    delta "metrics.policy_reconciles" +. delta "metrics.policy_compromises"
  in
  (* Self times partition the time the spans cover; the rest of the loop
     is the harness itself, trace draining included. *)
  let covered = Hashtbl.fold (fun _ v acc -> acc +. v) self 0. in
  [
    secs "netsim.inject_s" (get self "netsim.inject");
    secs "netsim.tick_s" (get self "netsim.tick");
    secs "netsim.fault_s" (get self "netsim.fault");
    count "netsim.packet_ins" (delta "packet_ins");
    count "netsim.flow_entries" (float_of_int flow_entries);
    secs "runtime.step_s"
      (get inclusive "runtime.step" +. get inclusive "runtime.tick");
    secs "runtime.poll_s" (get self "runtime.step" +. get self "runtime.tick");
    secs "dispatch.batch_s"
      (self_of Span.Batch_root +. self_of Span.Shard_dispatch);
    count "dispatch.batches" (count_of Span.Batch_root);
    count "runtime.events" (delta "events");
    count "runtime.shed" (delta "shed");
    count "runtime.setup_shed" (float_of_int setup_shed);
    secs "wire.rpc_s" (self_of Span.App_handle);
    count "wire.rpc_bytes" (delta "rpc_bytes");
    secs "apps.handle_s" (app_sum ".handle_s");
    count "apps.handle_calls" (app_sum ".handle_calls");
    secs "apps.policy_s" (app_sum ".policy_s");
    count "apps.policy_calls" (app_sum ".policy_calls");
  ]
  @ app_rows
  @ [
      secs "checkpoint.take_s" (self_of Span.Ckpt_take);
      count "checkpoint.takes" (delta "metrics.checkpoints");
      count "checkpoint.bytes_written" (delta "metrics.ckpt-bytes-written");
      frac "checkpoint.chunk_hit_ratio"
        (ratio ckpt_hits (ckpt_hits +. ckpt_misses));
      secs "checkpoint.restore_s" (self_of Span.Ckpt_restore);
      count "checkpoint.restores" (delta "metrics.ckpt-restores");
      secs "invariants.screen_s" (self_of Span.Detection);
      count "invariants.screens" screens;
      count "invariants.traces_per_screen" (ratio (hits +. misses) screens);
      frac "invariants.hit_ratio" (ratio hits (hits +. misses));
      count "invariants.invalidations" (delta "inv.invalidations");
      secs "netlog.commit_s" (self_of Span.Txn_commit);
      count "netlog.commits" (delta "netlog.committed");
      secs "netlog.rollback_s" (self_of Span.Txn_rollback);
      count "netlog.rollbacks" (delta "netlog.aborted");
      count "reliable.sends" (float_of_int sent);
      count "reliable.queued" (float_of_int queued);
      count "reliable.retransmits" (delta "reliable.retransmits");
      count "reliable.resyncs" (delta "reliable.resyncs");
      secs "crashpad.recovery_s" (self_of Span.Recovery);
      count "crashpad.failures"
        (delta "metrics.crashes" +. delta "metrics.hangs"
       +. delta "metrics.byzantine" +. delta "metrics.unreachable");
      count "crashpad.transformed" (delta "metrics.transformed");
      count "crashpad.ignored" (delta "metrics.ignored");
      count "crashpad.tickets" (delta "tickets");
      secs "voter.vote_s" (self_of Span.Vote);
      count "voter.elections" (delta "metrics.nversion_events");
      count "voter.outvoted" (delta "metrics.nversion_outvoted");
      count "voter.resync_bytes" (delta "metrics.nversion_resync_bytes");
      count "voter.sheds" (delta "metrics.nversion_sheds");
      count "voter.grows" (delta "metrics.nversion_grows");
      secs "runtime.event_self_s" (self_of Span.Event_root);
      count "policy.reconciles" (delta "metrics.policy_reconciles");
      count "policy.rejected" (delta "metrics.policy_rejected");
      count "policy.compromises" (delta "metrics.policy_compromises");
      frac "policy.install_ratio"
        (ratio installs (get spans "apps.policy_router.policy"));
      count "obs.dropped_spans" (float_of_int dropped);
      secs "bench.loop_s" (Float.max 0. (loop_s -. covered));
      frac "bench.coverage" (ratio covered loop_s);
      frac "failed_frac" failed_frac;
    ]
  @ List.map (fun k -> secs (layer k ^ ".self_s") (self_of k)) Span.all_kinds
