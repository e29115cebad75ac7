(* legosdn_cli — run a LegoSDN (or monolithic baseline) scenario from the
   command line.

   Examples:
     dune exec bin/legosdn_cli.exe -- run --topo ring:5 --apps learning_switch,firewall
     dune exec bin/legosdn_cli.exe -- run --arch monolithic \
        --bug crash:packet_in --duration 30
     dune exec bin/legosdn_cli.exe -- run --config-file my.policy --verbose
     dune exec bin/legosdn_cli.exe -- check-config my.policy *)

open Netsim
module Event = Controller.Event
module App_sig = Controller.App_sig
module Runtime = Legosdn.Runtime
module Scenario = Workload.Scenario
module Traffic = Workload.Traffic

(* ---------------- parsers for the small CLI DSLs ---------------- *)

let parse_topology s =
  let fail () =
    `Error
      (false,
       Printf.sprintf
         "cannot parse topology %S (expected linear:N, ring:N, star:N, \
          tree:D:F, mesh:N, fat-tree:K or random:SEED:N:EXTRA)"
         s)
  in
  match String.split_on_char ':' s with
  | [ "linear"; n ] -> `Ok (fun () -> Topo_gen.linear ~hosts_per_switch:1 (int_of_string n))
  | [ "ring"; n ] -> `Ok (fun () -> Topo_gen.ring ~hosts_per_switch:1 (int_of_string n))
  | [ "star"; n ] -> `Ok (fun () -> Topo_gen.star ~hosts_per_switch:1 (int_of_string n))
  | [ "tree"; d; f ] ->
      `Ok
        (fun () ->
          Topo_gen.tree ~hosts_per_leaf:1 ~depth:(int_of_string d)
            ~fanout:(int_of_string f) ())
  | [ "mesh"; n ] -> `Ok (fun () -> Topo_gen.mesh ~hosts_per_switch:1 (int_of_string n))
  | [ "fat-tree"; k ] -> `Ok (fun () -> Topo_gen.fat_tree (int_of_string k))
  | [ "random"; seed; n; extra ] ->
      `Ok
        (fun () ->
          Topo_gen.random ~hosts_per_switch:1 ~seed:(int_of_string seed)
            ~switches:(int_of_string n) ~extra_links:(int_of_string extra) ())
  | _ -> fail ()

let app_of_name = Apps.Suite.find

let kind_of_name name =
  List.find_opt (fun k -> Event.kind_name k = name) Event.all_kinds

let parse_bug s =
  (* EFFECT:TRIGGER, e.g. crash:packet_in, hang:switch_down,
     crash-nth:packet_in:5, byz-loop:packet_in, leak:packet_in:4096 *)
  let trigger_of k =
    match kind_of_name k with
    | Some kind -> Ok (Apps.Bug_model.On_kind kind)
    | None -> Error (Printf.sprintf "unknown event kind %S" k)
  in
  let open Apps.Bug_model in
  let result =
    match String.split_on_char ':' s with
    | [ "crash"; k ] -> Result.map (fun t -> make t Crash) (trigger_of k)
    | [ "hang"; k ] -> Result.map (fun t -> make t Hang) (trigger_of k)
    | [ "crash-nth"; k; n ] -> (
        match kind_of_name k with
        | Some kind -> Ok (crash_on_nth kind (int_of_string n))
        | None -> Error (Printf.sprintf "unknown event kind %S" k))
    | [ "byz-loop"; k ] -> Result.map (fun t -> make t Byzantine_loop) (trigger_of k)
    | [ "byz-blackhole"; k ] ->
        Result.map (fun t -> make t Byzantine_blackhole) (trigger_of k)
    | [ "leak"; k; bytes ] ->
        Result.map (fun t -> make t (Leak (int_of_string bytes))) (trigger_of k)
    | _ ->
        Error
          "expected EFFECT:EVENT_KIND (crash|hang|byz-loop|byz-blackhole), \
           crash-nth:KIND:N or leak:KIND:BYTES"
  in
  match result with Ok bug -> `Ok bug | Error e -> `Error (false, e)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---------------- the run command ---------------- *)

let run_scenario make_topology arch app_names bug config_file
    workload_flag duration trace_out trace_buffer delta_ckpt nversion verbose =
  let apps =
    List.filter_map
      (fun name ->
        match app_of_name name with
        | Some m -> Some (name, m)
        | None ->
            Printf.eprintf "warning: unknown app %S skipped\n" name;
            None)
      app_names
  in
  if apps = [] then begin
    Printf.eprintf "error: no valid applications selected\n";
    exit 2
  end;
  let apps =
    match (bug, apps) with
    | None, _ -> List.map snd apps
    | Some bug, (first_name, first) :: rest ->
        if verbose then
          Printf.printf "injecting bug [%s] into %s\n"
            (Apps.Bug_model.describe bug)
            first_name;
        Apps.Faulty.wrap ~bug first :: List.map snd rest
    | Some _, [] -> []
  in
  let config =
    match config_file with
    | Some path -> (
        match Legosdn.Config_lang.parse (read_file path) with
        | Ok c -> c
        | Error e ->
            Printf.eprintf "error: %s: %s\n" path
              (Format.asprintf "%a" Legosdn.Config_lang.pp_error e);
            exit 2)
    | None -> Runtime.default_config
  in
  let config =
    if delta_ckpt then
      { config with Runtime.checkpoint_mode = Runtime.Ckpt_delta_adaptive }
    else config
  in
  let config =
    (* --nversion overrides the config file; 1 turns panels off. *)
    match nversion with
    | None -> config
    | Some n when n <= 1 -> { config with Runtime.nversion = None }
    | Some n ->
        {
          config with
          Runtime.nversion =
            Some { Legosdn.Voter.default_config with Legosdn.Voter.nv_replicas = n };
        }
  in
  let probe_topo = make_topology () in
  let hosts = Topology.hosts probe_topo in
  (* --workload overrides the config file; absent both, the classic
     all-pairs + uniform mix. Trace-driven load is the only mix that
     scales to big fabrics: all-pairs is quadratic in hosts (a fat-tree
     k=16 has 1024 hosts, i.e. ~10^6 pairs). *)
  let workload_cfg =
    match (workload_flag, config.Runtime.workload) with
    | Some `Trace, Some w -> Some w
    | Some `Trace, None -> Some Runtime.default_workload_config
    | Some `Pairs, _ -> None
    | None, w -> w
  in
  let traffic =
    match workload_cfg with
    | Some w ->
        Workload.Trace_gen.injections ~config:w ~hosts ~duration ()
    | None ->
        Traffic.schedule
          (Traffic.all_pairs_once ~hosts ~start:0.3 ~spacing:0.1
          @ Traffic.uniform_pairs ~seed:7 ~hosts
              ~flows:(10 * List.length hosts) ~duration ())
  in
  if verbose then
    Printf.printf "traffic: %d injection(s) (%s workload)\n"
      (List.length traffic)
      (match workload_cfg with Some _ -> "trace-driven" | None -> "all-pairs");
  let scenario =
    Scenario.make ~make_topology ~duration ~traffic ~tick_interval:1.
      ~restart_delay:10. ()
  in
  if trace_out <> None && arch = "monolithic" then
    Printf.eprintf
      "warning: --trace-out is ignored for the monolithic baseline (no \
       runtime to trace)\n";
  let runtime_holder = ref None in
  let report =
    match arch with
    | "monolithic" ->
        Scenario.run scenario ~make_driver:(fun net ->
            Scenario.monolithic_driver (Controller.Monolithic.create net apps))
    | _ ->
        Scenario.run scenario ~make_driver:(fun net ->
            let rt = Runtime.create ~config net apps in
            if trace_out <> None then
              (* Virtual time for span placement; the host's real clock for
                 durations, so the exported timeline carries genuine
                 per-stage latencies (experiment E22). *)
              Runtime.set_tracer rt
                (Obs.Tracer.create ~capacity:trace_buffer
                   ~wall:Unix.gettimeofday
                   ~now:(fun () -> Clock.now (Net.clock net))
                   ());
            runtime_holder := Some rt;
            Scenario.legosdn_driver rt)
  in
  Format.printf "%a@." Scenario.pp_report report;
  (match (!runtime_holder, trace_out) with
  | Some rt, Some path ->
      let tracer = Runtime.tracer rt in
      let spans = Obs.Tracer.spans tracer in
      Obs.Export.save path spans;
      Printf.printf "trace: %d span(s) written to %s (%d recorded, %d \
                     dropped by the ring)\n"
        (List.length spans) path
        (Obs.Tracer.recorded tracer)
        (Obs.Tracer.dropped tracer);
      if verbose then
        Format.printf "span latencies:@.%a@." Obs.Tracer.pp_summary tracer
  | _ -> ());
  (match !runtime_holder with
  | Some rt when verbose ->
      Format.printf "@.metrics: %a@." Legosdn.Metrics.pp (Runtime.metrics rt);
      let net = Runtime.net rt in
      let ch = Netsim.Net.channel_totals net in
      Format.printf
        "channel: sent=%d lost=%d duplicated=%d delayed=%d replies-lost=%d \
         dups-suppressed=%d@."
        ch.Netsim.Channel.sent ch.Netsim.Channel.lost
        ch.Netsim.Channel.duplicated ch.Netsim.Channel.delayed
        ch.Netsim.Channel.replies_lost
        (Netsim.Net.dups_suppressed net);
      (match Runtime.reliable rt with
      | Some rel ->
          Format.printf "reliable: pending=%d divergence=%d degraded=%d@."
            (Legosdn.Reliable.pending_count rel)
            (Legosdn.Reliable.divergence rel)
            (Legosdn.Reliable.degraded_count rel)
      | None -> ());
      List.iter
        (fun box ->
          let c = Legosdn.Sandbox.checkpoint_store box in
          Format.printf
            "checkpoint[%s]: %s snapshots=%d written=%dB last=%dB journal=%d \
             chunk-hits=%d chunk-misses=%d deduped=%dB@."
            (Legosdn.Sandbox.name box)
            (if Legosdn.Checkpoint.is_delta c then "delta" else "full")
            (Legosdn.Checkpoint.snapshots_taken c)
            (Legosdn.Checkpoint.bytes_written c)
            (Legosdn.Checkpoint.last_snapshot_bytes c)
            (Legosdn.Checkpoint.journal_length c)
            (Legosdn.Checkpoint.chunk_hits c)
            (Legosdn.Checkpoint.chunk_misses c)
            (Legosdn.Checkpoint.chunk_bytes_deduped c))
        (Runtime.sandboxes rt);
      let tickets = Runtime.tickets rt in
      Format.printf "tickets: %d@." (List.length tickets);
      List.iter (fun t -> Format.printf "%a@." Legosdn.Ticket.pp t) tickets
  | _ -> ());
  `Ok ()

(* ---------------- record / minimize: the trace workflow ---------------- *)

(* An observer app that records every event it is shown; a CLI-side tool,
   so a module-level recorder is fine. *)
let cli_recorder = Workload.Trace_io.recorder ()

module Recorder_app = struct
  type state = int

  let name = "trace_recorder"
  let subscriptions = Event.all_kinds
  let init () = 0

  let handle _ st ev =
    Workload.Trace_io.record cli_recorder ev;
    (st + 1, [])
end

let record_trace make_topology app_names duration out_path =
  let apps =
    List.filter_map app_of_name app_names
    @ [ App_sig.app (module Recorder_app : App_sig.APP) ]
  in
  let probe_topo = make_topology () in
  let hosts = Topology.hosts probe_topo in
  let traffic =
    Traffic.schedule
      (Traffic.all_pairs_once ~hosts ~start:0.3 ~spacing:0.1
      @ Traffic.uniform_pairs ~seed:7 ~hosts ~flows:(10 * List.length hosts)
          ~duration ())
  in
  let scenario =
    Scenario.make ~make_topology ~duration ~traffic ~tick_interval:1. ()
  in
  let _ =
    Scenario.run scenario ~make_driver:(fun net ->
        Scenario.legosdn_driver (Runtime.create net apps))
  in
  let events = Workload.Trace_io.recorded cli_recorder in
  Workload.Trace_io.save out_path events;
  Printf.printf "recorded %d events to %s\n" (List.length events) out_path;
  `Ok ()

let minimize_trace trace_path app_name bug =
  match app_of_name app_name with
  | None ->
      Printf.eprintf "error: unknown app %S\n" app_name;
      exit 2
  | Some base ->
      let faulty = Apps.Faulty.wrap ~bug base in
      let trace = Workload.Trace_io.load trace_path in
      Printf.printf "loaded %d events from %s\n" (List.length trace) trace_path;
      let ctx = App_sig.null_context in
      if not (Legosdn.Sts.crashes_on (App_sig.to_legacy faulty) ctx trace) then begin
        Printf.printf "the trace does not crash %s with bug [%s]\n" app_name
          (Apps.Bug_model.describe bug);
        `Ok ()
      end
      else begin
        let minimal, calls = Legosdn.Sts.minimize (App_sig.to_legacy faulty) ctx trace in
        Printf.printf
          "minimal causal sequence: %d of %d events (%d oracle calls)\n"
          (List.length minimal) (List.length trace) calls;
        List.iter
          (fun ev -> Format.printf "  %a@." Controller.Event.pp ev)
          minimal;
        `Ok ()
      end

(* ---------------- the validate-trace command ---------------- *)

let validate_trace path =
  match Obs.Export.load path with
  | Error e ->
      Printf.eprintf "%s: cannot decode: %s\n" path e;
      exit 1
  | Ok spans -> (
      match Obs.Export.validate spans with
      | Error e ->
          Printf.eprintf "%s: ill-formed trace: %s\n" path e;
          exit 1
      | Ok () ->
          let kinds = Obs.Export.kinds spans in
          Printf.printf "%s: OK — %d span(s), kinds: %s\n" path
            (List.length spans)
            (if kinds = [] then "(none)"
             else String.concat ", " (List.map Obs.Span.kind_name kinds));
          (* Per-kind latency digest, recomputed from the file itself. *)
          List.iter
            (fun kind ->
              let hist = Obs.Histogram.create () in
              List.iter
                (fun (s : Obs.Span.t) ->
                  if s.kind = kind && not (Obs.Span.is_instant s) then
                    Obs.Histogram.observe hist (Obs.Span.duration s))
                spans;
              if Obs.Histogram.count hist > 0 then
                Format.printf "  %-10s %a@." (Obs.Span.kind_name kind)
                  Obs.Histogram.pp hist)
            kinds;
          `Ok ())

(* ---------------- the check-config command ---------------- *)

let check_config path =
  match Legosdn.Config_lang.parse (read_file path) with
  | Ok c ->
      Printf.printf "%s: OK\n%s" path (Legosdn.Config_lang.print c);
      `Ok ()
  | Error e ->
      Printf.eprintf "%s: %s\n" path
        (Format.asprintf "%a" Legosdn.Config_lang.pp_error e);
      exit 1

(* ---------------- cmdliner wiring ---------------- *)

open Cmdliner

let topo_conv = Arg.conv ((fun s -> parse_topology s |> function
  | `Ok v -> Ok v
  | `Error (_, msg) -> Error (`Msg msg)),
  fun fmt _ -> Format.pp_print_string fmt "<topology>")

let bug_conv = Arg.conv ((fun s -> parse_bug s |> function
  | `Ok v -> Ok v
  | `Error (_, msg) -> Error (`Msg msg)),
  fun fmt bug -> Format.pp_print_string fmt (Apps.Bug_model.describe bug))

let topo_arg =
  Arg.(value
       & opt topo_conv (fun () -> Topo_gen.linear ~hosts_per_switch:1 3)
       & info [ "topo" ] ~docv:"TOPO"
           ~doc:"Topology: linear:N, ring:N, star:N, tree:D:F, mesh:N, \
                 fat-tree:K, random:SEED:N:EXTRA.")

let workload_arg =
  Arg.(value
       & opt (some (enum [ ("pairs", `Pairs); ("trace", `Trace) ])) None
       & info [ "workload" ] ~docv:"KIND"
           ~doc:"Traffic mix: $(b,pairs) (every host pair once plus uniform \
                 random flows; quadratic in hosts) or $(b,trace) \
                 (trace-driven heavy-tailed load with diurnal shape and \
                 host churn; the only mix that scales to fat-tree:16). \
                 Overrides the $(b,workload) directive of \
                 $(b,--config-file); defaults to that directive, else \
                 pairs.")

let arch_arg =
  Arg.(value
       & opt (enum [ ("legosdn", "legosdn"); ("monolithic", "monolithic") ]) "legosdn"
       & info [ "arch" ] ~docv:"ARCH" ~doc:"Controller architecture.")

let apps_arg =
  Arg.(value
       & opt (list string) [ "learning_switch" ]
       & info [ "apps" ] ~docv:"APPS"
           ~doc:(Printf.sprintf
        "Comma-separated applications (%s). A bug, if any, is injected \
         into the first one."
        (String.concat ", " Apps.Suite.names)))

let bug_arg =
  Arg.(value
       & opt (some bug_conv) None
       & info [ "bug" ] ~docv:"BUG"
           ~doc:"Inject a bug into the first app, e.g. crash:packet_in, crash-nth:packet_in:5, hang:switch_down, byz-loop:packet_in, leak:packet_in:4096.")

let config_arg =
  Arg.(value
       & opt (some file) None
       & info [ "config-file" ] ~docv:"FILE"
           ~doc:"Runtime configuration in the operator config language; \
                 a file of compromise-policy lines alone is one.")

let duration_arg =
  Arg.(value & opt float 20. & info [ "duration" ] ~docv:"SECONDS"
         ~doc:"Virtual scenario duration.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print metrics and tickets.")

let delta_ckpt_arg =
  Arg.(value & flag
       & info [ "delta-ckpt" ]
           ~doc:"Use content-chunked delta checkpoints with the adaptive \
                 cadence (overrides the checkpoint mode of \
                 $(b,--config-file)).")

let nversion_arg =
  Arg.(value
       & opt (some int) None
       & info [ "nversion" ] ~docv:"N"
           ~doc:"Run every app as an N-variant voting panel (paper §3.4): \
                 each event's command sets are voted on, divergent variants \
                 are outvoted and re-synced from the majority snapshot, and \
                 MORPH-style adaptive shedding drops to a single variant \
                 while the panel stays clean. 1 disables panels; overrides \
                 $(b,--config-file).")

let trace_out_arg =
  Arg.(value
       & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the run's span trace as Chrome-trace JSON (open in \
                 chrome://tracing or validate with $(b,validate-trace)).")

let trace_buffer_arg =
  Arg.(value & opt int 65536
       & info [ "trace-buffer" ] ~docv:"N"
           ~doc:"Span ring-buffer capacity; the oldest spans are dropped \
                 once it wraps.")

let run_cmd =
  let doc = "Run a traffic scenario against a controller architecture" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(ret
            (const run_scenario $ topo_arg $ arch_arg $ apps_arg $ bug_arg
             $ config_arg $ workload_arg $ duration_arg
             $ trace_out_arg $ trace_buffer_arg $ delta_ckpt_arg
             $ nversion_arg $ verbose_arg))

let out_arg =
  Arg.(value & opt string "events.trace"
       & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Trace output file.")

let check_config_cmd =
  let doc = "Parse and echo an operator configuration file" in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "check-config" ~doc) Term.(ret (const check_config $ path))

let record_cmd =
  let doc = "Run a scenario and record the controller event stream to a file" in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(ret (const record_trace $ topo_arg $ apps_arg $ duration_arg $ out_arg))

let trace_pos =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE")

let app_pos =
  Arg.(value & opt string "learning_switch"
       & info [ "app" ] ~docv:"APP" ~doc:"Application to analyse.")

let bug_required =
  Arg.(required & opt (some bug_conv) None
       & info [ "bug" ] ~docv:"BUG" ~doc:"Bug to inject (e.g. crash:packet_in).")

let minimize_cmd =
  let doc =
    "Delta-debug a recorded trace: find the minimal causal event sequence \
     that crashes an app with the given bug (STS, paper §5)"
  in
  Cmd.v (Cmd.info "minimize" ~doc)
    Term.(ret (const minimize_trace $ trace_pos $ app_pos $ bug_required))

let validate_trace_cmd =
  let doc =
    "Decode a Chrome-trace JSON file produced by $(b,run --trace-out) (or \
     embedded in a fuzzer reproducer), check its structural \
     well-formedness, and print a per-stage latency digest"
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "validate-trace" ~doc) Term.(ret (const validate_trace $ path))

let () =
  let doc = "LegoSDN command-line playground" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "legosdn_cli" ~doc)
          [
            run_cmd; check_config_cmd; record_cmd;
            minimize_cmd; validate_trace_cmd;
          ]))
