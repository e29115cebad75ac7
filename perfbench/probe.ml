(* Wall-clock instruments shared by the measured loop and the traced apps: one
   monotonic clock, the benchmark's own span recorder, and growable sample
   buffers. Process-global on purpose: every run is its own process. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 4096 0.; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort compare a;
  a

(* Benchmark spans: recorded only while [tracing] is set. Nesting is
   recovered later from containment on the shared clock. *)
let tracing = ref false
let recorded : Arith.span list ref = ref []

let span layer f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    let close () =
      recorded :=
        { Arith.layer; t0; t1 = now (); id = -1; parent = -1 } :: !recorded
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

let drain () =
  let spans = !recorded in
  recorded := [];
  spans

(* A forwarding wrapper, in the manner of [Apps.Faulty.wrap]: same name,
   subscriptions, state and intent, with [handle] and [policy] timed. *)
let wrap_app (app : Controller.App_sig.app) : Controller.App_sig.app =
  let module A = (val app : Controller.App_sig.INTENT_APP) in
  let handle_layer = "apps." ^ A.name ^ ".handle"
  and policy_layer = "apps." ^ A.name ^ ".policy" in
  (module struct
    include A

    let handle ctx st ev = span handle_layer (fun () -> A.handle ctx st ev)
    let policy ctx st = span policy_layer (fun () -> A.policy ctx st)
  end)
