(* legosdn_fuzz — deterministic whole-system scenario fuzzing.

   Examples:
     dune exec bin/legosdn_fuzz.exe -- --seeds 0-200
     dune exec bin/legosdn_fuzz.exe -- --seeds 0-40 --plant no-retransmit \
        --out fuzz-repros
     dune exec bin/legosdn_fuzz.exe -- --replay fuzz-repros/seed-17.lsdnrep

   Every seed maps to exactly one scenario (topology, apps, channel fault
   model, traffic, faults, injected app bugs) executed on the virtual
   clock, so a clean run is a regression guarantee, not a statistical
   statement. Failing seeds are delta-debugged to a minimal element list
   and written out as self-contained reproducer files. *)

open Cmdliner

let parse_seeds s =
  match String.split_on_char '-' s with
  | [ lo; hi ] -> (
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi when 0 <= lo && lo <= hi ->
          `Ok (List.init (hi - lo + 1) (fun i -> lo + i))
      | _ -> `Error (false, Printf.sprintf "bad seed range %S" s))
  | [ one ] -> (
      match int_of_string_opt one with
      | Some n when n >= 0 -> `Ok [ n ]
      | _ -> `Error (false, Printf.sprintf "bad seed %S" s))
  | _ -> `Error (false, Printf.sprintf "bad seed range %S (want A-B)" s)

let seeds_conv =
  Arg.conv
    ( (fun s ->
        match parse_seeds s with
        | `Ok v -> Ok v
        | `Error (_, msg) -> Error (`Msg msg)),
      fun fmt seeds ->
        match (seeds, List.rev seeds) with
        | lo :: _, hi :: _ -> Format.fprintf fmt "%d-%d" lo hi
        | _ -> Format.fprintf fmt "<empty>" )

let plant_conv =
  Arg.conv
    ( (fun s ->
        match Check.Fuzz.plant_of_name s with
        | Some p -> Ok p
        | None -> Error (`Msg (Printf.sprintf "unknown plant %S" s))),
      fun fmt p -> Format.fprintf fmt "%s" (Check.Fuzz.plant_name p) )

let seeds_arg =
  let doc = "Seed range to fuzz, inclusive (e.g. 0-200 or a single seed)." in
  Arg.(value & opt seeds_conv (List.init 101 Fun.id)
       & info [ "seeds" ] ~docv:"A-B" ~doc)

let budget_arg =
  let doc =
    "Stop after this many findings (minimization is the expensive part); \
     the seed scan itself always completes."
  in
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N" ~doc)

let oracles_arg =
  let doc =
    Printf.sprintf "Comma-separated oracle subset to check (default all: %s)."
      (String.concat ", " Check.Oracle.names)
  in
  Arg.(value & opt (some string) None & info [ "oracles" ] ~docv:"NAMES" ~doc)

let out_arg =
  let doc = "Directory for reproducer files (created on first finding)." in
  Arg.(value & opt string "fuzz-repros" & info [ "out" ] ~docv:"DIR" ~doc)

let plant_arg =
  let doc =
    "Deliberately planted defect for self-validation: 'no-retransmit' \
     disables the reliable layer's retransmission timer, which the \
     convergence/atomicity oracles must catch; 'kill-leader' turns each \
     scenario into a replicated fail-over trial (see --kill-leader); \
     'byz-variant' runs each scenario as a 3-variant voting panel with a \
     seated byzantine variant, checked by the nversion-masking oracle (the \
     byzantine output must be outvoted before it reaches the network)."
  in
  Arg.(value & opt plant_conv Check.Fuzz.No_plant
       & info [ "plant" ] ~docv:"PLANT" ~doc)

let kill_leader_arg =
  let doc =
    "Shorthand for --plant kill-leader: run every seed as a 3-replica \
     cluster with traffic-only elements and a leader kill armed \
     mid-transaction, checked by the leader-failover oracle (single live \
     leader, converged replicas, and delivery parity with a never-killed \
     run of the same scenario)."
  in
  Arg.(value & flag & info [ "kill-leader" ] ~doc)

let dispatch_arg =
  let doc =
    "Event dispatch: 'seq' (one event at a time, the specification) or \
     'batched' (batches of up to 64 events). An execution parameter, not \
     part of the scenario: the same seeds and reproducers run under \
     either, and must behave identically."
  in
  Arg.(value
       & opt
           (enum
              [
                ("seq", Legosdn.Runtime.Sequential);
                ("batched", Legosdn.Runtime.default_sharded);
              ])
           Legosdn.Runtime.Sequential
       & info [ "dispatch" ] ~docv:"MODE" ~doc)

let apps_arg =
  let doc =
    "Comma-separated app suite overriding each scenario's generated menu \
     (e.g. 'policy_router,policy_firewall'); topology, faults and traffic \
     stay seed-determined."
  in
  Arg.(value & opt (some string) None & info [ "apps" ] ~docv:"NAMES" ~doc)

let replay_arg =
  let doc = "Replay a reproducer file instead of fuzzing." in
  Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Span-trace the minimized run of every finding with a ring buffer of \
     $(docv) spans; the trace is embedded in the reproducer file as \
     Chrome-trace JSON."
  in
  Arg.(value & opt (some int) None & info [ "trace-buffer" ] ~docv:"N" ~doc)

let select_oracles = function
  | None -> Check.Oracle.all
  | Some csv ->
      Check.Oracle.select
        (List.filter
           (fun s -> s <> "")
           (List.map String.trim (String.split_on_char ',' csv)))

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let repro_path dir (f : Check.Fuzz.finding) =
  Filename.concat dir (Printf.sprintf "seed-%d.lsdnrep" f.Check.Fuzz.seed)

let do_replay oracles dispatch path =
  let repro = Check.Repro.load path in
  Printf.printf "replaying %s\n  spec: %s\n  expected failure: %s (%s)\n%!"
    path
    (Check.Spec.summary repro.Check.Repro.spec)
    repro.Check.Repro.oracle repro.Check.Repro.detail;
  let spans_ok =
    match repro.Check.Repro.spans with
    | [] -> true
    | spans -> (
        match Obs.Export.validate spans with
        | Ok () ->
            Printf.printf "  embedded span trace: %d span(s), well-formed\n%!"
              (List.length spans);
            true
        | Error e ->
            Printf.printf "  embedded span trace: INVALID (%s)\n%!" e;
            false)
  in
  let r = Check.Repro.replay ~oracles ~dispatch repro in
  Printf.printf "  reproduced: %b\n  trace byte-identical: %b\n%!"
    r.Check.Repro.reproduced r.Check.Repro.same_trace;
  if r.Check.Repro.reproduced && r.Check.Repro.same_trace && spans_ok then begin
    Printf.printf "replay OK\n%!";
    0
  end
  else begin
    Printf.printf "replay FAILED to reproduce\n%!";
    2
  end

let do_fuzz oracles dispatch seeds budget plant trace_buffer apps out =
  Printf.printf "fuzzing %d seed(s), oracles: %s, plant: %s, dispatch: %s\n%!"
    (List.length seeds)
    (String.concat "," (List.map (fun o -> o.Check.Oracle.name) oracles))
    (Check.Fuzz.plant_name plant)
    (match dispatch with
    | Legosdn.Runtime.Sequential -> "seq"
    | Legosdn.Runtime.Batched { max_batch } ->
        Printf.sprintf "batched(%d)" max_batch);
  let on_finding (f : Check.Fuzz.finding) =
    ensure_dir out;
    let path = repro_path out f in
    Check.Repro.save path (Check.Fuzz.reproducer_of f);
    Printf.printf
      "FINDING seed=%d oracle=%s\n  %s\n  minimized to %d element(s) in %d \
       runs:\n"
      f.Check.Fuzz.seed f.Check.Fuzz.oracle f.Check.Fuzz.detail
      (List.length f.Check.Fuzz.minimal)
      f.Check.Fuzz.shrink_runs;
    List.iter
      (fun el -> Printf.printf "    %s\n" (Check.Spec.element_summary el))
      f.Check.Fuzz.minimal;
    Printf.printf "  reproducer: %s\n%!" path
  in
  let result =
    Check.Fuzz.campaign ~oracles ~plant ?trace_buffer ~dispatch ?apps
      ?max_findings:budget ~on_finding seeds
  in
  Printf.printf "%d seed(s) run, %d finding(s)\n%!"
    result.Check.Fuzz.seeds_run
    (List.length result.Check.Fuzz.findings);
  if result.Check.Fuzz.findings = [] then 0 else 2

let main seeds budget oracles_csv out plant kill_leader trace_buffer dispatch
    apps_csv replay =
  let plant = if kill_leader then Check.Fuzz.Kill_leader_plant else plant in
  let apps =
    Option.map
      (fun csv ->
        List.filter
          (fun s -> s <> "")
          (List.map String.trim (String.split_on_char ',' csv)))
      apps_csv
  in
  match
    (try Ok (select_oracles oracles_csv)
     with Invalid_argument msg -> Error msg)
  with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok oracles -> (
      match replay with
      | Some path -> do_replay oracles dispatch path
      | None -> do_fuzz oracles dispatch seeds budget plant trace_buffer apps out)

let cmd =
  let doc = "deterministic scenario fuzzer for the LegoSDN stack" in
  Cmd.v
    (Cmd.info "legosdn_fuzz" ~doc)
    Term.(
      const main $ seeds_arg $ budget_arg $ oracles_arg $ out_arg $ plant_arg
      $ kill_leader_arg $ trace_arg $ dispatch_arg $ apps_arg $ replay_arg)

let () = exit (Cmd.eval' cmd)
