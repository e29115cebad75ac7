module Event = Controller.Event

module Chunk_store = struct
  (* Keys are (content digest, probe). The probe index separates distinct
     contents that share a digest: lookups walk probes until a byte-equal
     chunk is found or a slot is free, so a collision can cost a few extra
     probes but never corrupts a snapshot. *)
  type key = int64 * int

  type chunk = { data : bytes; mutable refs : int }

  type t = {
    size : int;
    table : (key, chunk) Hashtbl.t;
    mutable n_hits : int;
    mutable n_misses : int;
    mutable n_deduped : int;
  }

  type manifest = { total : int; keys : key array }

  type write = {
    hits : int;
    misses : int;
    deduped_bytes : int;
    written_bytes : int;
  }

  let create ?(chunk_size = 64) () =
    if chunk_size < 1 then
      invalid_arg "Chunk_store.create: chunk_size must be >= 1";
    {
      size = chunk_size;
      table = Hashtbl.create 256;
      n_hits = 0;
      n_misses = 0;
      n_deduped = 0;
    }

  (* FNV-1a, 64-bit. *)
  let digest b =
    let h = ref 0xcbf29ce484222325L in
    for i = 0 to Bytes.length b - 1 do
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
          0x100000001b3L
    done;
    !h

  (* Serialized-manifest cost model: a small header (length + chunk count)
     plus one chunk reference (digest + probe + length) per chunk. *)
  let manifest_overhead nchunks = 16 + (10 * nchunks)

  let intern t data =
    let d = digest data in
    let rec probe p =
      match Hashtbl.find_opt t.table (d, p) with
      | Some c when Bytes.equal c.data data ->
          c.refs <- c.refs + 1;
          ((d, p), true)
      | Some _ -> probe (p + 1)
      | None ->
          Hashtbl.replace t.table (d, p) { data; refs = 1 };
          ((d, p), false)
    in
    probe 0

  let store t blob =
    let len = Bytes.length blob in
    let n = (len + t.size - 1) / t.size in
    let keys = Array.make n (0L, 0) in
    let hits = ref 0 and misses = ref 0 in
    let deduped = ref 0 and written = ref 0 in
    for i = 0 to n - 1 do
      let off = i * t.size in
      let clen = min t.size (len - off) in
      let key, hit = intern t (Bytes.sub blob off clen) in
      keys.(i) <- key;
      if hit then begin
        incr hits;
        deduped := !deduped + clen
      end
      else begin
        incr misses;
        written := !written + clen
      end
    done;
    let written_bytes = !written + manifest_overhead n in
    t.n_hits <- t.n_hits + !hits;
    t.n_misses <- t.n_misses + !misses;
    t.n_deduped <- t.n_deduped + !deduped;
    ( { total = len; keys },
      {
        hits = !hits;
        misses = !misses;
        deduped_bytes = !deduped;
        written_bytes;
      } )

  (* The references a fresh [store] would take are the ones releasing
     [m] would then drop, so keeping [m] moves no refcount. *)
  let store_again t m =
    let n = Array.length m.keys in
    t.n_hits <- t.n_hits + n;
    t.n_deduped <- t.n_deduped + m.total;
    {
      hits = n;
      misses = 0;
      deduped_bytes = m.total;
      written_bytes = manifest_overhead n;
    }

  let keep_or_store t ~kept blob =
    match kept with
    | Some (image, m) when image == blob -> (m, store_again t m)
    | _ -> store t blob

  let release t m =
    Array.iter
      (fun key ->
        match Hashtbl.find_opt t.table key with
        | None -> ()
        | Some c ->
            c.refs <- c.refs - 1;
            if c.refs <= 0 then Hashtbl.remove t.table key)
      m.keys

  let materialize t m =
    let out = Bytes.create m.total in
    Array.iteri
      (fun i key ->
        match Hashtbl.find_opt t.table key with
        | None -> invalid_arg "Chunk_store.materialize: released manifest"
        | Some c ->
            Bytes.blit c.data 0 out (i * t.size) (Bytes.length c.data))
      m.keys;
    out

  let hits t = t.n_hits
  let misses t = t.n_misses
  let bytes_deduped t = t.n_deduped
end

type cadence =
  | Every of int
  | Adaptive of {
      replay_cost_per_event : int;
      min_events : int;
      max_events : int;
    }

type notification =
  | Took of {
      written : int;
      chunk_hits : int;
      chunk_misses : int;
      deduped : int;
    }
  | Materialized

(* The latest image: a full store holds the bytes it was handed, a delta
   store those bytes' manifest beside them, so that a take of the very
   same bytes keeps it. *)
type storage =
  | Full of bytes option
  | Delta of Chunk_store.t * (bytes * Chunk_store.manifest) option

type t = {
  when_due : cadence;
  observer : (notification -> unit) option;
  mutable storage : storage;
  mutable journal : Event.t list;  (* newest first *)
  mutable journal_len : int;
  mutable taken : int;
  mutable total_bytes : int;
  mutable last_bytes : int;
  mutable last_write : int;
  mutable est_write : float;  (* EWMA of per-take written bytes *)
}

let check_cadence = function
  | Every k -> if k < 1 then invalid_arg "Checkpoint.create: every must be >= 1"
  | Adaptive { replay_cost_per_event; min_events; max_events } ->
      if replay_cost_per_event < 1 || min_events < 1 || max_events < 1 then
        invalid_arg "Checkpoint: adaptive cadence parameters must be >= 1";
      if min_events > max_events then
        invalid_arg "Checkpoint: min_events > max_events"

let make ?observer storage when_due =
  check_cadence when_due;
  {
    when_due;
    observer;
    storage;
    journal = [];
    journal_len = 0;
    taken = 0;
    total_bytes = 0;
    last_bytes = 0;
    last_write = 0;
    est_write = 0.;
  }

let create ?observer ~every () = make ?observer (Full None) (Every every)

let create_delta ?chunk_size ?observer ~cadence () =
  make ?observer (Delta (Chunk_store.create ?chunk_size (), None)) cadence

let is_delta t = match t.storage with Full _ -> false | Delta _ -> true

let notify t n = match t.observer with None -> () | Some f -> f n

let due t =
  t.taken = 0
  ||
  match t.when_due with
  | Every k -> t.journal_len >= k
  | Adaptive { replay_cost_per_event; min_events; max_events } ->
      t.journal_len >= max_events
      || t.journal_len >= min_events
         && float_of_int (t.journal_len * replay_cost_per_event) >= t.est_write

let take t image =
  let w =
    match t.storage with
    | Full _ ->
        t.storage <- Full (Some image);
        {
          Chunk_store.hits = 0;
          misses = 0;
          deduped_bytes = 0;
          written_bytes = Bytes.length image;
        }
    | Delta (store, kept) ->
        let m, w = Chunk_store.keep_or_store store ~kept image in
        (* Release the old manifest only after the new one holds its
           references: chunks the two share must survive the swap, or the
           store would evict and immediately re-write them. *)
        (match kept with
        | Some (_, old) when old != m -> Chunk_store.release store old
        | _ -> ());
        t.storage <- Delta (store, Some (image, m));
        w
  in
  t.last_write <- w.Chunk_store.written_bytes;
  notify t
    (Took
       {
         written = w.Chunk_store.written_bytes;
         chunk_hits = w.Chunk_store.hits;
         chunk_misses = w.Chunk_store.misses;
         deduped = w.Chunk_store.deduped_bytes;
       });
  t.journal <- [];
  t.journal_len <- 0;
  t.taken <- t.taken + 1;
  t.last_bytes <- Bytes.length image;
  t.total_bytes <- t.total_bytes + t.last_write;
  t.est_write <-
    (if t.taken = 1 then float_of_int t.last_write
     else (0.5 *. t.est_write) +. (0.5 *. float_of_int t.last_write))

let record_applied t ev =
  t.journal <- ev :: t.journal;
  t.journal_len <- t.journal_len + 1

let restore_point t =
  match t.storage with
  | Full None | Delta (_, None) -> None
  | Full (Some image) -> Some (image, List.rev t.journal)
  | Delta (store, Some (_, m)) ->
      let snap = Chunk_store.materialize store m in
      notify t Materialized;
      Some (snap, List.rev t.journal)

let journal_length t = t.journal_len
let snapshots_taken t = t.taken
let bytes_written t = t.total_bytes
let last_snapshot_bytes t = t.last_bytes
let last_write_bytes t = t.last_write

let chunk_stat stat t =
  match t.storage with Full _ -> 0 | Delta (store, _) -> stat store

let chunk_hits = chunk_stat Chunk_store.hits
let chunk_misses = chunk_stat Chunk_store.misses
let chunk_bytes_deduped = chunk_stat Chunk_store.bytes_deduped
