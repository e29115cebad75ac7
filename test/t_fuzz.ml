(* Bounded smoke tests for the scenario fuzzer: a small clean seed range
   must produce no findings (determinism makes this a regression test,
   not a flake source); a planted defect must be found, shrunk small, and
   emitted as a reproducer that replays byte-for-byte. *)

module Spec = Check.Spec
module Gen = Check.Gen
module Runner = Check.Runner
module Fuzz = Check.Fuzz
module Repro = Check.Repro

let seeds lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

let test_spec_codec_roundtrip () =
  List.iter
    (fun seed ->
      let spec = Gen.scenario seed in
      T_util.checkb
        (Printf.sprintf "seed %d spec roundtrips" seed)
        true
        (Spec.equal spec (Spec.decode (Spec.encode spec))))
    (seeds 0 20)

let test_generation_is_deterministic () =
  List.iter
    (fun seed ->
      T_util.checkb
        (Printf.sprintf "seed %d generates identically twice" seed)
        true
        (Spec.equal (Gen.scenario seed) (Gen.scenario seed)))
    (seeds 0 20)

let test_clean_seed_range_has_no_findings () =
  let result = Fuzz.campaign (seeds 0 25) in
  T_util.checki "seeds run" 26 result.Fuzz.seeds_run;
  (match result.Fuzz.findings with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "unexpected finding: seed %d oracle %s: %s"
        f.Fuzz.seed f.Fuzz.oracle f.Fuzz.detail);
  T_util.checki "no findings" 0 (List.length result.Fuzz.findings)

let test_run_is_deterministic () =
  let spec = Gen.scenario 5 in
  let a = Runner.run spec and b = Runner.run spec in
  T_util.checkb "same verdict" true (a.Runner.failure = b.Runner.failure);
  T_util.checkb "same event trace" true (a.Runner.trace = b.Runner.trace)

let find_planted () =
  match
    (Fuzz.campaign ~plant:Fuzz.No_retransmit ~max_findings:1 (seeds 0 10))
      .Fuzz.findings
  with
  | f :: _ -> f
  | [] -> Alcotest.fail "planted no-retransmit defect not found in seeds 0-10"

let test_planted_bug_found_and_shrunk () =
  let f = find_planted () in
  T_util.checkb "caught by a reliable-delivery oracle" true
    (f.Fuzz.oracle = "convergence" || f.Fuzz.oracle = "atomicity");
  T_util.checkb
    (Printf.sprintf "shrunk to <= 5 elements (got %d)"
       (List.length f.Fuzz.minimal))
    true
    (List.length f.Fuzz.minimal <= 5);
  T_util.checkb "minimal is a sublist of the original" true
    (List.length f.Fuzz.minimal
    <= List.length (Gen.scenario f.Fuzz.seed).Spec.elements)

let test_reproducer_roundtrip_and_replay () =
  let f = find_planted () in
  let repro = Fuzz.reproducer_of f in
  (* Disk format roundtrips... *)
  let loaded = Repro.decode (Repro.encode repro) in
  T_util.checkb "spec survives the reproducer file" true
    (Spec.equal repro.Repro.spec loaded.Repro.spec);
  T_util.checkb "trace survives the reproducer file" true
    (repro.Repro.trace = loaded.Repro.trace);
  (* ...and the loaded reproducer replays byte-for-byte. *)
  let r = Repro.replay loaded in
  T_util.checkb "same oracle fails on replay" true r.Repro.reproduced;
  T_util.checkb "replay trace byte-identical" true r.Repro.same_trace

(* Dispatch mode is an execution parameter, not part of the reproducer
   format: a reproducer recorded under sequential dispatch must replay
   byte-for-byte under batched dispatch, and vice versa — determinism
   across modes, not merely within one. *)
let test_reproducer_replays_across_engines () =
  let batched = Legosdn.Runtime.default_sharded in
  (* Recorded sequential, replayed batched... *)
  let f = find_planted () in
  let repro = Repro.decode (Repro.encode (Fuzz.reproducer_of f)) in
  let r = Repro.replay ~dispatch:batched repro in
  T_util.checkb "seq-recorded reproduces under batched" true
    r.Repro.reproduced;
  T_util.checkb "seq-recorded trace identical under batched" true
    r.Repro.same_trace;
  (* ...and recorded batched, replayed sequential. *)
  match
    (Fuzz.campaign ~plant:Fuzz.No_retransmit ~dispatch:batched
       ~max_findings:1 (seeds 0 10))
      .Fuzz.findings
  with
  | [] -> Alcotest.fail "planted defect not found under batched dispatch"
  | f :: _ ->
      let repro = Repro.decode (Repro.encode (Fuzz.reproducer_of f)) in
      let r = Repro.replay repro in
      T_util.checkb "batched-recorded reproduces under seq" true
        r.Repro.reproduced;
      T_util.checkb "batched-recorded trace identical under seq" true
        r.Repro.same_trace

let suite =
  [
    Alcotest.test_case "spec codec roundtrip" `Quick test_spec_codec_roundtrip;
    Alcotest.test_case "generation deterministic" `Quick
      test_generation_is_deterministic;
    Alcotest.test_case "clean seeds 0-25 have no findings" `Slow
      test_clean_seed_range_has_no_findings;
    Alcotest.test_case "run deterministic" `Quick test_run_is_deterministic;
    Alcotest.test_case "planted bug found and shrunk" `Slow
      test_planted_bug_found_and_shrunk;
    Alcotest.test_case "reproducer roundtrip and replay" `Slow
      test_reproducer_roundtrip_and_replay;
    Alcotest.test_case "reproducer replays across engines" `Slow
      test_reproducer_replays_across_engines;
  ]
