module Chunk_store = Checkpoint.Chunk_store

(* A shipped replica state: everything a successor controller needs to
   resume exactly where the shipper was after dispatching the log entry
   at [commit_index]. App snapshots travel as chunk-store manifests so
   steady-state ships move only changed chunks; [next_xid] and the shadow
   tables make the successor's wire behaviour a seamless continuation of
   the shipper's (switch-side xid dedup keeps working, resyncs keep their
   intent). *)
type snapshot = {
  commit_index : int;
  next_xid : int;
  apps : (string * Chunk_store.manifest) list;
  shadows : (Openflow.Types.switch_id * Netsim.Flow_table.Version.t) list;
  pending : (Openflow.Types.switch_id * Openflow.Message.t) list;
}

type t = {
  store : Chunk_store.t;
  (* app -> the bytes of the latest ship and their manifest; kept so
     superseded manifests can be released only after their successors
     hold the shared chunks, and so the same bytes keep their manifest. *)
  mutable shipped : (string * (bytes * Chunk_store.manifest)) list;
  mutable n_ships : int;
  mutable n_shipped_bytes : int;
}

let create () =
  { store = Chunk_store.create (); shipped = []; n_ships = 0; n_shipped_bytes = 0 }

let ship t ~commit_index rt =
  let previous = t.shipped in
  let shipped =
    List.map
      (fun box ->
        let name = Sandbox.name box in
        let snap = Sandbox.snapshot_bytes box in
        let manifest, w =
          Chunk_store.keep_or_store t.store
            ~kept:(List.assoc_opt name previous)
            snap
        in
        t.n_shipped_bytes <- t.n_shipped_bytes + w.Chunk_store.written_bytes;
        (name, (snap, manifest)))
      (Runtime.sandboxes rt)
  in
  (* Release the superseded manifests only after the fresh ones hold
     their references, so chunks shared across ships survive the swap. *)
  t.shipped <- shipped;
  List.iter
    (fun (_, (_, m)) ->
      if not (List.exists (fun (_, (_, kept)) -> kept == m) shipped) then
        Chunk_store.release t.store m)
    previous;
  t.n_ships <- t.n_ships + 1;
  let next_xid =
    match Runtime.netlog rt with Some nl -> Netlog.next_xid nl | None -> 1
  in
  let shadows, pending =
    match Runtime.reliable rt with
    | Some rel -> (Reliable.capture_shadows rel, Reliable.export_pending rel)
    | None -> ([], [])
  in
  let apps = List.map (fun (name, (_, m)) -> (name, m)) shipped in
  { commit_index; next_xid; apps; shadows; pending }

let restore t snapshot rt =
  List.iter
    (fun box ->
      match List.assoc_opt (Sandbox.name box) snapshot.apps with
      | Some manifest ->
          Sandbox.restore_bytes box (Chunk_store.materialize t.store manifest)
      | None -> ())
    (Runtime.sandboxes rt);
  match Runtime.reliable rt with
  | Some rel ->
      Reliable.import_shadows rel
        (List.map
           (fun (sid, v) -> (sid, Netsim.Flow_table.Version.entries v))
           snapshot.shadows);
      Reliable.import_pending rel snapshot.pending
  | None -> ()

let ships t = t.n_ships
let shipped_bytes t = t.n_shipped_bytes
