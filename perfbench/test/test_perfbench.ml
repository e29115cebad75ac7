(* The benchmark's own arithmetic: percentiles and their refusal rule,
   self time over a mixed span tree, and delivery-failure accounting. *)

let some = Alcotest.(option (float 1e-9))
let close = Alcotest.float 1e-9
let ascending n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  Alcotest.check some "p50 of 20 leaves ten beyond" (Some 10.)
    (Arith.percentile (ascending 20) 50.);
  Alcotest.check some "p50 of 19 leaves nine" None
    (Arith.percentile (ascending 19) 50.);
  Alcotest.check some "p99 of 1000" (Some 990.)
    (Arith.percentile (ascending 1000) 99.);
  Alcotest.check some "p99 of 999 is refused" None
    (Arith.percentile (ascending 999) 99.);
  Alcotest.check some "p90 of 100" (Some 90.)
    (Arith.percentile (ascending 100) 90.);
  Alcotest.check some "p90 of 99 is refused" None
    (Arith.percentile (ascending 99) 90.);
  Alcotest.check some "empty" None (Arith.percentile [||] 50.)

let test_median () =
  Alcotest.check close "odd" 2. (Arith.median [ 4.; 1.; 2. ]);
  Alcotest.check close "even" 5.5
    (Arith.median (List.init 10 (fun i -> float_of_int (i + 1))))

let bench layer t0 t1 = { Arith.layer; t0; t1; id = -1; parent = -1 }
let runtime layer ~id ~parent t0 t1 = { Arith.layer; t0; t1; id; parent }

let check_layers expected spans =
  let got = Arith.self_times spans in
  List.iter
    (fun (layer, v) ->
      Alcotest.check close layer v
        (Option.value (List.assoc_opt layer got) ~default:nan))
    expected

let test_self_times () =
  (* A runtime root nests under the benchmark span that contains it, its
     children nest by parent id, and an app span recorded by the benchmark
     nests by containment inside the runtime's App_handle. *)
  check_layers
    [
      ("netsim.inject", 1.);
      ("runtime.step", 2.);
      ("event", 2.);
      ("app", 2.);
      ("apps.x.handle", 1.);
      ("detect", 3.);
    ]
    [
      bench "netsim.inject" (-2.) (-1.);
      bench "runtime.step" 0. 10.;
      bench "apps.x.handle" 3. 4.;
      runtime "event" ~id:1 ~parent:(-1) 1. 9.;
      runtime "app" ~id:2 ~parent:1 2. 5.;
      runtime "detect" ~id:3 ~parent:1 5. 8.;
    ];
  (* A parent id missing from the set (its span was cleared) falls back to
     containment. *)
  check_layers
    [ ("outer", 4.); ("child", 2.); ("step", 2.); ("orphan", 1.) ]
    [
      runtime "outer" ~id:7 ~parent:(-1) 0. 6.;
      runtime "child" ~id:8 ~parent:7 1. 3.;
      bench "step" 10. 13.;
      runtime "orphan" ~id:9 ~parent:42 11. 12.;
    ];
  (* Instants and children starting with their parent cover no extra time. *)
  check_layers
    [ ("root", 1.); ("first", 2.); ("mark", 0.) ]
    [
      bench "root" 0. 3.;
      runtime "first" ~id:1 ~parent:(-1) 0. 2.;
      runtime "mark" ~id:2 ~parent:1 1. 1.;
    ]

let test_failed_packets () =
  let f (packets, delivered) = Arith.failed_packets ~packets ~delivered in
  Alcotest.(check int) "burst fully answered" 0 (f (32, 32));
  Alcotest.(check int) "burst two short" 2 (f (32, 30));
  Alcotest.(check int) "single lost" 1 (f (1, 0));
  Alcotest.(check int) "single duplicated" 0 (f (1, 2));
  let inputs = [ (32, 32); (32, 30); (1, 0); (1, 2) ] in
  let failed = List.fold_left (fun acc i -> acc + f i) 0 inputs in
  let packets = List.fold_left (fun acc (p, _) -> acc + p) 0 inputs in
  Alcotest.check close "failed_frac" (3. /. 66.)
    (float_of_int failed /. float_of_int packets)

let () =
  Alcotest.run "perfbench"
    [
      ( "arith",
        [
          Alcotest.test_case "percentile refuses thin tails" `Quick
            test_percentile;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "self time on a mixed span tree" `Quick
            test_self_times;
          Alcotest.test_case "failed packets on bursts and singles" `Quick
            test_failed_packets;
        ] );
    ]
