(* The end-to-end benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Every run of a workload — each set-up repetition, the measured run and
   the traced run — is a fresh child process of this executable, because
   process-global state (Faulty's coin counters, the match intern pool)
   must start cold each time. Results come back over a pipe with
   [Marshal]. The launcher checks that runs of one seed agree on every
   exact count, prints each metric with its unit, then one JSON line, and
   exits non-zero when any check fails. *)

let setup_repeats = 3

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 1)
    fmt

(* [--key value] pairs. *)
let args =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        Hashtbl.replace tbl (String.sub key 2 (String.length key - 2)) value;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  tbl

let arg key =
  match Hashtbl.find_opt args key with Some v -> v | None -> usage ()

let int_arg key =
  match int_of_string_opt (arg key) with Some n -> n | None -> usage ()

let spawn (w : Workloads.t) ~seed ~units ~traced =
  let argv =
    [|
      Sys.executable_name;
      "--workload";
      w.name;
      "--seed";
      string_of_int seed;
      "--units";
      string_of_int units;
      "--trace";
      (if traced then "1" else "0");
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let r =
    try Some (Marshal.from_channel ic : Measure.result)
    with End_of_file -> None
  in
  match (Unix.close_process_in ic, r) with
  | Unix.WEXITED 0, Some r -> r
  | _ -> fail "%s: a child run failed" w.name

(* Counts of earlier runs of this very executable, keyed by workload, seed
   and size, so any two runs of one seed are compared — not only the runs
   of one invocation. They live at the root of the build directory
   ([<build>/default/perfbench/main.exe]), outside the tree dune prunes. *)
let compare_with_record (w : Workloads.t) ~seed ~units counts =
  let build_root = Filename.(dirname (dirname (dirname Sys.executable_name))) in
  let dir = Filename.concat build_root "perfbench-counts" in
  let file =
    Filename.concat dir
      (Printf.sprintf "%s-%s-%d-%d"
         (Digest.to_hex (Digest.file Sys.executable_name))
         w.name seed units)
  in
  let render l =
    String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) l)
  in
  if Sys.file_exists file then begin
    let recorded = In_channel.with_open_bin file In_channel.input_all in
    if recorded <> render counts then
      [ "counts differ from an earlier run of this seed (" ^ file ^ ")" ]
    else []
  end
  else begin
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let tmp = file ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc -> output_string oc (render counts));
    Sys.rename tmp file;
    []
  end

let mismatches (a : Measure.result) (b : Measure.result) =
  if a.counts = b.counts then []
  else
    List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k b.counts with
      | Some v' when v = v' -> None
      | Some v' ->
          Some
            (Printf.sprintf "traced and untraced runs disagree on %s: %d vs %d"
               k v v')
      | None -> Some ("count missing from the traced run: " ^ k))
    a.counts

let micros what (sorted : float array) p =
  match Arith.percentile sorted p with
  | Some v -> v *. 1e6
  | None ->
    fail "%s: %d samples are too few for a p%g with ten beyond it" what
      (Array.length sorted) p

let end_to_end ~setups (r : Measure.result) =
  [
    ("setup_s", Arith.median setups, "s");
    ("events_per_s", float_of_int r.events /. r.loop_s, "1/s");
    ("event_p50_us", micros "events" r.event_lat 50., "us");
    ("event_p99_us", micros "events" r.event_lat 99., "us");
    ("reaction_p50_us", micros "reactions" r.reaction 50., "us");
    ("reaction_p90_us", micros "reactions" r.reaction 90., "us");
    ("heap_peak_mb", r.heap_peak_mb, "MB");
  ]

(* Recovery latency exists only where failures happen; with too few
   samples for a percentile it reads 0 beside its sample count. *)
let per_layer ~(untraced : Measure.result) (traced : Measure.result) =
  let opt p =
    match Arith.percentile untraced.recovery p with
    | Some v -> v *. 1e6
    | None -> 0.
  in
  traced.layers
  @ [
    ("obs.trace_overhead", traced.loop_s /. untraced.loop_s, "ratio");
    ("recovery_p50_us", opt 50., "us");
    ("recovery_p90_us", opt 90., "us");
    ( "recovery.samples",
      float_of_int (Array.length untraced.recovery),
      "count" );
    ]

let () =
  let w =
    match Workloads.find (arg "workload") with Some w -> w | None -> usage ()
  in
  let seed = int_arg "seed" in
  let traced =
    match arg "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if Hashtbl.mem args "units" then begin
    (* A child: one run, its result to the launcher. *)
    let r = Measure.run w ~seed ~units:(int_arg "units") ~traced in
    Marshal.to_channel stdout (r : Measure.result) [];
    flush stdout
  end
  else begin
    let seconds = int_arg "seconds" in
    if seconds < 1 then usage ();
    let units =
      max 1 (int_of_float (float_of_int seconds *. w.units_per_wall))
    in
    let measured = spawn w ~seed ~units ~traced:false in
    let traced_run =
      if traced then Some (spawn w ~seed ~units ~traced:true) else None
    in
    let setups =
      if traced then []
      else
        measured.setup_s
        :: List.init (setup_repeats - 1) (fun _ ->
               (spawn w ~seed ~units:0 ~traced:false).setup_s)
    in
    let errors =
      measured.errors
      @ compare_with_record w ~seed ~units measured.counts
      @
      match traced_run with
      | Some t -> t.errors @ mismatches measured t
      | None -> []
    in
    Printf.printf "workload %s, seed %d, size %d\n" w.name seed units;
    Printf.printf
      "measured loop %.3f s: %d events, %d reactions, %d recoveries, %d \
       packets, %d failed\n"
      measured.loop_s measured.events
      (Array.length measured.reaction)
      (Array.length measured.recovery)
      measured.packets measured.failed;
    List.iter (fun (k, v) -> Printf.printf "count %s %d\n" k v) measured.counts;
    let metrics =
      match traced_run with
      | None -> end_to_end ~setups measured
      | Some t -> per_layer ~untraced:measured t
    in
    List.iter (fun (n, v, u) -> Printf.printf "%-36s %.6g %s\n" n v u) metrics;
    List.iter (fun e -> Printf.printf "error: %s\n" e) errors;
    let num v = Obs.Json.Num v in
    print_endline
      (Obs.Json.to_string
         (Obs.Json.Obj
            [
              ("correct", Obs.Json.Bool (errors = []));
              ("attempted", num (float_of_int measured.packets));
              ("failed", num (float_of_int measured.failed));
              ( "metrics",
                Obs.Json.Obj
                  (List.map
                     (fun (n, v, u) ->
                       ( n,
                         Obs.Json.Obj
                           [ ("value", num v); ("unit", Obs.Json.Str u) ] ))
                     metrics) );
            ]));
    if errors <> [] then exit 1
  end
