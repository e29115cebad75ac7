open Controller

type verdict =
  | Done of Command.t list
  | Crashed of { partial : Command.t list; detail : string }
  | Hung

type t = {
  mutable inst : App_sig.instance;
  mutable prev_inst : App_sig.instance option;  (* state before last deliver *)
  mutable serialized : (App_sig.instance * bytes) option;
      (* the image of the last state serialized, and that state *)
  ckpt : Checkpoint.t;
  mutable is_alive : bool;
  mutable n_events : int;
  mutable n_crashes : int;
  mutable n_rpc_bytes : int;
  scratch : Wire.scratch;  (* the RPC channel's codec buffer *)
}

let create ~ckpt m =
  {
    inst = App_sig.instantiate m;
    prev_inst = None;
    serialized = None;
    ckpt;
    is_alive = true;
    n_events = 0;
    n_crashes = 0;
    n_rpc_bytes = 0;
    scratch = Wire.scratch ();
  }

let name t = App_sig.name t.inst
let subscribes_to t kind = App_sig.subscribes_to t.inst kind

let alive t = t.is_alive
let disable t = t.is_alive <- false
let enable t = t.is_alive <- true

let events_handled t = t.n_events
let crash_count t = t.n_crashes
let rpc_bytes t = t.n_rpc_bytes
let checkpoint_store t = t.ckpt

(* The one place a state becomes an image. States are immutable
   (App_sig's purity contract), so an instance serializes to the same
   bytes every time it is asked. *)
let snapshot_bytes t =
  match t.serialized with
  | Some (inst, bytes) when inst == t.inst -> bytes
  | _ ->
      let bytes = App_sig.snapshot t.inst in
      t.serialized <- Some (t.inst, bytes);
      bytes

(* A Marshal round trip of an app state is byte-stable (a t_apps
   property), so the bytes a state was restored from are its image. *)
let restore_image t bytes =
  t.inst <- App_sig.restore t.inst bytes;
  t.serialized <- Some (t.inst, bytes)

let state_size t = Bytes.length (snapshot_bytes t)
let take t = Checkpoint.take t.ckpt (snapshot_bytes t)

let prepare ?(tracer = Obs.Tracer.noop) t =
  if Checkpoint.due t.ckpt then
    if Obs.Tracer.enabled tracer then begin
      let id =
        Obs.Tracer.start tracer
          ~attrs:[ ("app", name t) ]
          Obs.Span.Ckpt_take
      in
      take t;
      Obs.Tracer.finish tracer
        ~attrs:
          [
            ("written", string_of_int (Checkpoint.last_write_bytes t.ckpt));
            ("delta", string_of_bool (Checkpoint.is_delta t.ckpt));
          ]
        id
    end
    else take t

(* One hop of the proxy->stub RPC: bytes out, bytes back in. *)
let ship_event t ev =
  let ev', n = Wire.roundtrip_event_scratch t.scratch ev in
  t.n_rpc_bytes <- t.n_rpc_bytes + n;
  ev'

let ship_commands t cmds =
  let cmds', n = Wire.roundtrip_commands_scratch t.scratch cmds in
  t.n_rpc_bytes <- t.n_rpc_bytes + n;
  cmds'

let deliver t ctx ev =
  let ev = ship_event t ev in
  match App_sig.handle t.inst ctx ev with
  | updated, commands ->
      t.prev_inst <- Some t.inst;
      t.inst <- updated;
      t.n_events <- t.n_events + 1;
      Done (ship_commands t commands)
  | exception App_sig.Crash_with_partial partial ->
      t.n_crashes <- t.n_crashes + 1;
      Crashed
        {
          partial = ship_commands t partial;
          detail = "crash after partial command emission";
        }
  | exception App_sig.App_hang ->
      t.n_crashes <- t.n_crashes + 1;
      Hung
  | exception exn ->
      t.n_crashes <- t.n_crashes + 1;
      Crashed { partial = []; detail = Printexc.to_string exn }

let confirm t ev = Checkpoint.record_applied t.ckpt ev

let revert_last t =
  match t.prev_inst with
  | Some prev ->
      t.inst <- prev;
      t.prev_inst <- None
  | None -> ()

let checkpoint_now t = take t

type recovery = { replayed : int; dropped_in_replay : int }

let recover ?(tracer = Obs.Tracer.noop) t ctx =
  let restore () =
    match Checkpoint.restore_point t.ckpt with
    | None ->
        t.inst <- App_sig.reboot t.inst;
        { replayed = 0; dropped_in_replay = 0 }
    | Some (snapshot, journal) ->
        restore_image t snapshot;
        let replayed = ref 0 and dropped = ref 0 in
        List.iter
          (fun ev ->
            (* Replay rebuilds state only; commands were already committed the
               first time around, so they are discarded here. A replay crash
               means the journal event is skipped (state diverges slightly,
               availability is preserved). *)
            match App_sig.handle t.inst ctx ev with
            | updated, _commands ->
                t.inst <- updated;
                incr replayed
            | exception _ -> incr dropped)
          journal;
        (* The restored state becomes the new baseline. *)
        take t;
        { replayed = !replayed; dropped_in_replay = !dropped }
  in
  if Obs.Tracer.enabled tracer then begin
    let id =
      Obs.Tracer.start tracer
        ~attrs:
          [
            ("app", name t);
            ("journal", string_of_int (Checkpoint.journal_length t.ckpt));
          ]
        Obs.Span.Ckpt_restore
    in
    let r = restore () in
    Obs.Tracer.finish tracer
      ~attrs:
        [
          ("replayed", string_of_int r.replayed);
          ("dropped", string_of_int r.dropped_in_replay);
        ]
      id;
    r
  end
  else restore ()

let reboot t = t.inst <- App_sig.reboot t.inst

(* The declared policy is evaluated against the *current* instance state;
   a raising hook only disables intent-based recovery, never the app. *)
let declared_policy t ctx =
  match App_sig.policy_of t.inst ctx with
  | p -> p
  | exception _ -> None

let restore_bytes t snapshot =
  restore_image t snapshot;
  take t
