open Openflow
module Checkpoint = Legosdn.Checkpoint
module App_sig = Controller.App_sig
module Event = Controller.Event

let instance () = App_sig.instantiate (App_sig.app (module Apps.Learning_switch))

(* A store sees only images: the bytes a state serializes to. *)
let image () = App_sig.snapshot (instance ())

let tick t = Event.Tick t

let packet_in ?(sid = 1) ?(in_port = 100) src dst =
  Event.Packet_in
    ( sid,
      {
        Message.pi_buffer_id = None;
        pi_in_port = in_port;
        pi_reason = Message.No_match;
        pi_packet = T_util.tcp_packet src dst;
      } )

(* An instance with some learned state, so snapshots are a few chunks
   long rather than a near-empty Marshal header. *)
let warmed_instance () =
  let inst = ref (instance ()) in
  for src = 1 to 8 do
    for dst = 1 to 8 do
      let updated, _ =
        App_sig.handle !inst App_sig.null_context (packet_in src dst)
      in
      inst := updated
    done
  done;
  !inst

let test_due_before_first_event () =
  let c = Checkpoint.create ~every:5 () in
  T_util.checkb "due initially" true (Checkpoint.due c);
  Checkpoint.take c (image ());
  T_util.checkb "not due right after" false (Checkpoint.due c)

let test_every_one () =
  let c = Checkpoint.create ~every:1 () in
  Checkpoint.take c (image ());
  Checkpoint.record_applied c (tick 1.);
  T_util.checkb "due after each event with k=1" true (Checkpoint.due c)

let test_every_k () =
  let c = Checkpoint.create ~every:3 () in
  Checkpoint.take c (image ());
  Checkpoint.record_applied c (tick 1.);
  T_util.checkb "not due after 1 of 3" false (Checkpoint.due c);
  Checkpoint.record_applied c (tick 2.);
  Checkpoint.record_applied c (tick 3.);
  T_util.checkb "due after 3 of 3" true (Checkpoint.due c)

let test_restore_point_carries_journal () =
  let c = Checkpoint.create ~every:10 () in
  T_util.checkb "no restore point yet" true (Checkpoint.restore_point c = None);
  Checkpoint.take c (image ());
  Checkpoint.record_applied c (tick 1.);
  Checkpoint.record_applied c (tick 2.);
  match Checkpoint.restore_point c with
  | Some (_, journal) ->
      Alcotest.(check (list T_util.event_t)) "journal order oldest-first"
        [ tick 1.; tick 2. ] journal
  | None -> Alcotest.fail "restore point expected"

let test_take_clears_journal () =
  let c = Checkpoint.create ~every:2 () in
  Checkpoint.take c (image ());
  Checkpoint.record_applied c (tick 1.);
  Checkpoint.take c (image ());
  T_util.checki "journal cleared" 0 (Checkpoint.journal_length c);
  T_util.checki "two snapshots accounted" 2 (Checkpoint.snapshots_taken c)

let test_bytes_accounting () =
  let c = Checkpoint.create ~every:1 () in
  Checkpoint.take c (image ());
  let first = Checkpoint.bytes_written c in
  T_util.checkb "bytes counted" true (first > 0);
  T_util.checki "last snapshot size" first (Checkpoint.last_snapshot_bytes c);
  Checkpoint.take c (image ());
  T_util.checki "bytes accumulate" (2 * first) (Checkpoint.bytes_written c)

let test_invalid_k () =
  Alcotest.check_raises "k=0 rejected"
    (Invalid_argument "Checkpoint.create: every must be >= 1") (fun () ->
      ignore (Checkpoint.create ~every:0 ()))

(* ---- delta storage ---- *)

let test_delta_vs_full_bytes () =
  let full = Checkpoint.create ~every:1 () in
  let delta = Checkpoint.create_delta ~cadence:(Checkpoint.Every 1) () in
  let inst = warmed_instance () in
  (* Each take stores a fresh serialization, as after a changed state. *)
  let take c = Checkpoint.take c (App_sig.snapshot inst) in
  take full;
  take delta;
  take full;
  take delta;
  let logical = Checkpoint.last_snapshot_bytes full in
  T_util.checki "full pays the whole blob each time" (2 * logical)
    (Checkpoint.bytes_written full);
  (* Unchanged state: the second delta take hits on every chunk and pays
     only manifest overhead. *)
  T_util.checkb "second delta take is manifest-only" true
    (Checkpoint.last_write_bytes delta < logical);
  T_util.checkb "delta cheaper than full overall" true
    (Checkpoint.bytes_written delta < Checkpoint.bytes_written full);
  T_util.checkb "dedup accounted" true
    (Checkpoint.chunk_bytes_deduped delta > 0);
  T_util.checkb "chunk hits accounted" true (Checkpoint.chunk_hits delta > 0);
  match Checkpoint.restore_point delta with
  | Some (snap, _) ->
      T_util.checkb "materialization is byte-exact" true
        (Bytes.equal snap (App_sig.snapshot inst))
  | None -> Alcotest.fail "restore point expected"

let test_adaptive_cadence () =
  (* Astronomic replay cost: due exactly when min_events is reached. *)
  let eager =
    Checkpoint.create_delta
      ~cadence:
        (Checkpoint.Adaptive
           { replay_cost_per_event = 1_000_000; min_events = 2; max_events = 8 })
      ()
  in
  Checkpoint.take eager (App_sig.snapshot (warmed_instance ()));
  Checkpoint.record_applied eager (tick 1.);
  T_util.checkb "below min_events" false (Checkpoint.due eager);
  Checkpoint.record_applied eager (tick 2.);
  T_util.checkb "due at min_events under huge replay cost" true
    (Checkpoint.due eager);
  (* Negligible replay cost: only the max_events ceiling triggers. *)
  let lazy_c =
    Checkpoint.create_delta
      ~cadence:
        (Checkpoint.Adaptive
           { replay_cost_per_event = 1; min_events = 1; max_events = 3 })
      ()
  in
  Checkpoint.take lazy_c (App_sig.snapshot (warmed_instance ()));
  Checkpoint.record_applied lazy_c (tick 1.);
  T_util.checkb "cheap replay defers" false (Checkpoint.due lazy_c);
  Checkpoint.record_applied lazy_c (tick 2.);
  Checkpoint.record_applied lazy_c (tick 3.);
  T_util.checkb "max_events bounds the journal" true (Checkpoint.due lazy_c)

(* The tentpole's correctness property: restoring from a chunked snapshot
   plus journal replay reproduces the live application state byte-for-byte,
   whatever the event sequence, cadence or chunk size. *)
let prop_restore_equivalence =
  QCheck2.Test.make ~name:"delta restore + replay = live state" ~count:100
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 40)
           (oneof
              [
                map2 (fun a b -> `Pkt (a, b)) (int_range 1 6) (int_range 1 6);
                map (fun t -> `Tick (float_of_int t)) (int_range 1 100);
              ]))
        (oneofl [ 1; 2; 5 ])
        (oneofl [ 1; 7; 64 ]))
    (fun (events, k, chunk_size) ->
      let c =
        Checkpoint.create_delta ~chunk_size ~cadence:(Checkpoint.Every k) ()
      in
      let ctx = App_sig.null_context in
      let live = ref (instance ()) in
      List.iter
        (fun e ->
          let ev =
            match e with
            | `Pkt (src, dst) -> packet_in src dst
            | `Tick t -> Event.Tick t
          in
          (* The sandbox protocol: checkpoint when due, deliver, journal. *)
          if Checkpoint.due c then Checkpoint.take c (App_sig.snapshot !live);
          let updated, _ = App_sig.handle !live ctx ev in
          live := updated;
          Checkpoint.record_applied c ev)
        events;
      match Checkpoint.restore_point c with
      | None -> false
      | Some (snap, journal) ->
          let restored = ref (App_sig.restore !live snap) in
          List.iter
            (fun ev ->
              let updated, _ = App_sig.handle !restored ctx ev in
              restored := updated)
            journal;
          Bytes.equal (App_sig.snapshot !restored) (App_sig.snapshot !live))

(* ---- a take of an unchanged state ---- *)

let blob_of c =
  match Checkpoint.restore_point c with
  | Some (snap, _) -> snap
  | None -> Alcotest.fail "restore point expected"

(* A per-instance memo of images, as [Sandbox.snapshot_bytes] keeps one:
   the same bytes until the instance changes. *)
let memo () =
  let last = ref None in
  fun inst ->
    match !last with
    | Some (seen, image) when seen == inst -> image
    | _ ->
        let image = App_sig.snapshot inst in
        last := Some (inst, image);
        image

module Chunk_store = Checkpoint.Chunk_store

let test_unchanged_state_keeps_image () =
  let inst = warmed_instance () in
  (* Source 1 was learned on port 100: seeing it there again changes
     nothing, seeing it on port 7 moves it. *)
  let same, _ = App_sig.handle inst App_sig.null_context (packet_in 1 2) in
  T_util.checkb "an unchanged state keeps its instance" true (same == inst);
  let moved, _ =
    App_sig.handle inst App_sig.null_context (packet_in ~in_port:7 1 2)
  in
  T_util.checkb "a changed state gets a new instance" false (moved == inst);
  let image_of = memo () in
  let c = Checkpoint.create ~every:1 () in
  Checkpoint.take c (image_of inst);
  let image = blob_of c in
  Checkpoint.take c (image_of same);
  T_util.checkb "the image is kept" true (blob_of c == image);
  T_util.checki "and accounted as a fresh take" (2 * Bytes.length image)
    (Checkpoint.bytes_written c);
  Checkpoint.take c (image_of moved);
  T_util.checkb "a changed state is serialized again" false
    (blob_of c == image);
  T_util.checkb "into its own bytes" true
    (Bytes.equal (blob_of c) (App_sig.snapshot moved));
  (* A delta store keeps the manifest of the very bytes it holds and
     stores a byte-equal copy afresh; both miss no chunk and write only
     the manifest. *)
  let d = Checkpoint.create_delta ~cadence:(Checkpoint.Every 1) () in
  Checkpoint.take d image;
  let counts () =
    ( Checkpoint.chunk_misses d,
      Checkpoint.chunk_hits d,
      Checkpoint.chunk_bytes_deduped d )
  in
  let misses, hits, deduped = counts () in
  (* Every chunk of the 64-byte default hits, and the whole image is
     deduplicated. *)
  let chunks = (Bytes.length image + 63) / 64 and len = Bytes.length image in
  Checkpoint.take d image;
  T_util.checkb "the same bytes miss no chunk" true
    (counts () = (misses, hits + chunks, deduped + len));
  let written = Checkpoint.last_write_bytes d in
  T_util.checki "and write only the manifest" (16 + (10 * chunks)) written;
  Checkpoint.take d (Bytes.copy image);
  T_util.checkb "a byte-equal copy is accounted alike" true
    (counts () = (misses, hits + (2 * chunks), deduped + (2 * len))
    && Checkpoint.last_write_bytes d = written);
  (* The chunk store's rule itself: a kept manifest moves no refcount, so
     once both manifests are released no chunk is left. *)
  let store = Chunk_store.create () in
  let m, _ = Chunk_store.keep_or_store store ~kept:None image in
  let kept, w = Chunk_store.keep_or_store store ~kept:(Some (image, m)) image in
  T_util.checkb "the same bytes keep the manifest" true (kept == m);
  T_util.checki "without a miss" 0 w.Chunk_store.misses;
  let copy, w' =
    Chunk_store.keep_or_store store ~kept:(Some (image, m)) (Bytes.copy image)
  in
  T_util.checkb "a byte-equal copy is stored afresh" false (copy == m);
  T_util.checkb "with the same accounting" true (w' = w);
  Chunk_store.release store m;
  T_util.checkb "the copy holds its own references" true
    (Bytes.equal (Chunk_store.materialize store copy) image);
  Chunk_store.release store copy;
  Alcotest.check_raises "no reference left"
    (Invalid_argument "Chunk_store.materialize: released manifest") (fun () ->
      ignore (Chunk_store.materialize store copy))

(* A store that keeps its image for an unchanged state must be
   indistinguishable from one that stores a fresh serialization at every
   take. Store [a] is handed the bytes of a per-instance memo, as
   [Sandbox] hands them; its twin [b] a fresh serialization at each take,
   which is never the bytes its image came from. Few hosts, two ports
   and ticks make the learning switch's state stay put for long stretches;
   restores and reboots hand the store new instances of old states. *)
type step =
  | Pkt of int * int * int  (* src, dst, in_port *)
  | Idle  (* a tick: the learning switch ignores it *)
  | Down of int  (* a switch leaves *)
  | Restore  (* checkpoint restore and journal replay, as in recovery *)
  | Reboot
  | Take_now  (* an unconditional take *)

let pp_step = function
  | Pkt (s, d, p) -> Printf.sprintf "pkt %d>%d@%d" s d p
  | Idle -> "idle"
  | Down sw -> Printf.sprintf "down %d" sw
  | Restore -> "restore"
  | Reboot -> "reboot"
  | Take_now -> "take"

let gen_steps =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (frequency
         [
           ( 8,
             map3
               (fun s d p -> Pkt (s, d, p))
               (int_range 1 3) (int_range 1 3) (int_range 1 2) );
           (2, return Idle);
           (1, map (fun sw -> Down sw) (int_range 1 2));
           (1, return Restore);
           (1, return Reboot);
           (1, return Take_now);
         ]))

let stores =
  [
    ("full every 1", fun observer -> Checkpoint.create ~observer ~every:1 ());
    ("full every 3", fun observer -> Checkpoint.create ~observer ~every:3 ());
    ( "delta every 1",
      fun observer ->
        Checkpoint.create_delta ~chunk_size:16 ~observer
          ~cadence:(Checkpoint.Every 1) () );
    ( "delta adaptive",
      fun observer ->
        Checkpoint.create_delta ~chunk_size:16 ~observer
          ~cadence:
            (Checkpoint.Adaptive
               { replay_cost_per_event = 40; min_events = 1; max_events = 6 })
          () );
  ]

(* Takes of the instance the previous take was of, and so of the same
   bytes: the reuse path's opportunities, across every case the property
   runs. *)
let reused_takes = ref 0

let reuse_matches_fresh (store, steps) =
  let make = List.assoc store stores in
  let seen_a = ref [] and seen_b = ref [] in
  let a = make (fun n -> seen_a := n :: !seen_a) in
  let b = make (fun n -> seen_b := n :: !seen_b) in
  let full = not (Checkpoint.is_delta a) in
  let ctx = App_sig.null_context in
  let live = ref (instance ()) in
  let image_of = memo () in
  let last_taken = ref None in
  let take () =
    let unchanged =
      match !last_taken with Some i -> i == !live | None -> false
    in
    let before = if full && unchanged then Some (blob_of a) else None in
    Checkpoint.take a (image_of !live);
    Checkpoint.take b (App_sig.snapshot !live);
    last_taken := Some !live;
    if unchanged then incr reused_takes;
    match before with
    | Some image when blob_of a != image ->
        QCheck2.Test.fail_report "an unchanged state's image was not kept"
    | _ -> ()
  in
  (* Both stores' restore points, which must be equal and hold what the
     last take was of; [a]'s is returned. The twin alone cannot show that
     [a] kept the right image, since it runs the same [take]. *)
  let restore_points () =
    let pa = Checkpoint.restore_point a and pb = Checkpoint.restore_point b in
    (match (pa, pb, !last_taken) with
    | Some (sa, ja), Some (sb, jb), Some taken
      when Bytes.equal sa sb
           && List.equal Event.equal ja jb
           && Bytes.equal sa (App_sig.snapshot taken) ->
        ()
    | None, None, None -> ()
    | _ -> QCheck2.Test.fail_report "restore points differ");
    pa
  in
  let deliver ev =
    if Checkpoint.due a <> Checkpoint.due b then
      QCheck2.Test.fail_report "the twins disagree on due";
    if Checkpoint.due a then take ();
    let updated, _ = App_sig.handle !live ctx ev in
    live := updated;
    Checkpoint.record_applied a ev;
    Checkpoint.record_applied b ev
  in
  List.iter
    (function
      | Pkt (src, dst, in_port) -> deliver (packet_in ~in_port src dst)
      | Idle -> deliver (tick 1.)
      | Down sw -> deliver (Event.Switch_down sw)
      | Restore -> (
          match restore_points () with
          | None -> ()
          | Some (snap, journal) ->
              live := App_sig.restore !live snap;
              List.iter
                (fun ev -> live := fst (App_sig.handle !live ctx ev))
                journal;
              take ())
      | Reboot -> live := App_sig.reboot !live
      | Take_now -> take ())
    steps;
  let counters c =
    [
      Checkpoint.bytes_written c;
      Checkpoint.chunk_hits c;
      Checkpoint.chunk_misses c;
      Checkpoint.chunk_bytes_deduped c;
      Checkpoint.journal_length c;
      Checkpoint.snapshots_taken c;
      Checkpoint.last_snapshot_bytes c;
      Checkpoint.last_write_bytes c;
    ]
  in
  ignore (restore_points ());
  (!seen_a = !seen_b
     || QCheck2.Test.fail_report "notification streams differ")
  && (counters a = counters b || QCheck2.Test.fail_report "counters differ")

let prop_reuse_matches_fresh =
  QCheck2.Test.make ~name:"reused image == fresh serialization" ~count:300
    ~print:(fun (store, steps) ->
      store ^ ": " ^ String.concat "; " (List.map pp_step steps))
    QCheck2.Gen.(pair (oneofl (List.map fst stores)) gen_steps)
    reuse_matches_fresh

(* Runs after the property: unless some take was handed the bytes its
   image came from, the property compared two fresh serializations. *)
let test_reuse_not_vacuous () =
  T_util.checkb
    (Printf.sprintf "%d takes of an unchanged instance" !reused_takes)
    true (!reused_takes > 0)

let suite =
  [
    Alcotest.test_case "due before first event" `Quick test_due_before_first_event;
    Alcotest.test_case "k=1 cadence" `Quick test_every_one;
    Alcotest.test_case "k=3 cadence" `Quick test_every_k;
    Alcotest.test_case "restore point journal" `Quick test_restore_point_carries_journal;
    Alcotest.test_case "take clears journal" `Quick test_take_clears_journal;
    Alcotest.test_case "byte accounting" `Quick test_bytes_accounting;
    Alcotest.test_case "invalid k" `Quick test_invalid_k;
    Alcotest.test_case "delta vs full bytes" `Quick test_delta_vs_full_bytes;
    Alcotest.test_case "adaptive cadence" `Quick test_adaptive_cadence;
    QCheck_alcotest.to_alcotest prop_restore_equivalence;
    Alcotest.test_case "a take of an unchanged state keeps its image" `Quick
      test_unchanged_state_keeps_image;
    QCheck_alcotest.to_alcotest prop_reuse_matches_fresh;
    Alcotest.test_case "reuse path ran" `Quick test_reuse_not_vacuous;
  ]
