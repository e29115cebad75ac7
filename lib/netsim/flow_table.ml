open Openflow

(* Entries live in priority buckets (descending priority). Within a bucket,
   fully-specified patterns sit in an exact-match hash table and wildcarded
   patterns in an insertion-ordered list; a per-table sequence number stamps
   every entry so the first-inserted-wins tie rule of the old flat list is
   preserved exactly. The flattened priority-ordered view (what [entries]
   returns and [Snapshot.of_net] copies) is memoized and invalidated on
   mutation, and [generation] counts mutations so snapshot/cache layers can
   detect change without diffing rules. *)

type slot = { seq : int; entry : Flow_entry.t }

(* The exact-match index hashes with [Ofp_match.hash] (FNV over the fields)
   rather than the polymorphic hash, and probes through [Ofp_match.equal]'s
   pointer-equality fast path — stored keys are interned, so twin
   replacement and [find_exact] on interned probes are pointer compares. *)
module Mtbl = Hashtbl.Make (struct
  type t = Ofp_match.t

  let equal = Ofp_match.equal
  let hash = Ofp_match.hash
end)

type bucket = {
  prio : int;
  exact : slot Mtbl.t;
      (* fully-specified patterns: at most one entry per pattern *)
  mutable wild : slot list;  (* wildcarded patterns, insertion order *)
}

type t = {
  mutable buckets : bucket list;  (* descending priority *)
  mutable count : int;
  mutable next_seq : int;
  mutable gen : int;
  mutable flat : Flow_entry.t list option;  (* memoized [entries] view *)
}

let create () =
  { buckets = []; count = 0; next_seq = 0; gen = 0; flat = None }

let size t = t.count
let generation t = t.gen

let touch t =
  t.gen <- t.gen + 1;
  t.flat <- None

let is_exact pattern = Ofp_match.wildcard_count pattern = 0

let bucket_slots b =
  Mtbl.fold (fun _ s acc -> s :: acc) b.exact b.wild
  |> List.sort (fun a b -> compare a.seq b.seq)

let entries t =
  match t.flat with
  | Some l -> l
  | None ->
      let l =
        List.concat_map
          (fun b -> List.map (fun s -> s.entry) (bucket_slots b))
          t.buckets
      in
      t.flat <- Some l;
      l

let clear t =
  t.buckets <- [];
  t.count <- 0;
  touch t

let find_bucket t prio = List.find_opt (fun b -> b.prio = prio) t.buckets

let add_bucket t prio =
  let b = { prio; exact = Mtbl.create 8; wild = [] } in
  let rec go = function
    | [] -> [ b ]
    | b' :: rest as all -> if prio > b'.prio then b :: all else b' :: go rest
  in
  t.buckets <- go t.buckets;
  b

let drop_empty t =
  t.buckets <-
    List.filter (fun b -> Mtbl.length b.exact > 0 || b.wild <> []) t.buckets

let stamp t entry =
  let s = { seq = t.next_seq; entry } in
  t.next_seq <- t.next_seq + 1;
  s

let add t (entry : Flow_entry.t) =
  (* [entry.pattern] is already interned ({!Flow_entry.of_flow_mod}/[make]
     intern at creation), so the exact index stores shared keys and twin
     replacement below is a pointer compare. The entry record itself is
     stored as given — callers alias its mutable counters. *)
  let b =
    match find_bucket t entry.priority with
    | Some b -> b
    | None -> add_bucket t entry.priority
  in
  (* OF 1.0 Add semantics: an identical match+priority twin is replaced. The
     bucket bounds the search; the exact hash makes the common
     (fully-specified) case O(1). *)
  if is_exact entry.pattern then begin
    if Mtbl.mem b.exact entry.pattern then begin
      Mtbl.remove b.exact entry.pattern;
      t.count <- t.count - 1
    end;
    Mtbl.replace b.exact entry.pattern (stamp t entry)
  end
  else begin
    let dup, kept =
      List.partition
        (fun s -> Ofp_match.equal s.entry.Flow_entry.pattern entry.pattern)
        b.wild
    in
    t.count <- t.count - List.length dup;
    b.wild <- kept @ [ stamp t entry ]
  end;
  t.count <- t.count + 1;
  touch t

let touches ~strict ?out_port pattern ~priority (e : Flow_entry.t) =
  (if strict then priority = e.priority && Ofp_match.equal pattern e.pattern
   else Ofp_match.subsumes pattern e.pattern)
  &&
  match out_port with
  | None -> true
  | Some p -> List.mem p (Action.outputs e.actions)

let modify t ~strict pattern ~priority actions =
  let hit = ref false in
  let rewrite b =
    let keys =
      Mtbl.fold
        (fun key s acc ->
          if touches ~strict pattern ~priority s.entry then (key, s) :: acc
          else acc)
        b.exact []
    in
    List.iter
      (fun (key, s) ->
        hit := true;
        Mtbl.replace b.exact key
          { s with entry = { s.entry with Flow_entry.actions } })
      keys;
    b.wild <-
      List.map
        (fun s ->
          if touches ~strict pattern ~priority s.entry then begin
            hit := true;
            { s with entry = { s.entry with Flow_entry.actions } }
          end
          else s)
        b.wild
  in
  (if strict then
     match find_bucket t priority with
     | Some b -> rewrite b
     | None -> ()
   else List.iter rewrite t.buckets);
  if !hit then touch t;
  !hit

let delete t ~strict ?out_port pattern ~priority =
  let condemned = touches ~strict ?out_port pattern ~priority in
  let gone = ref [] in
  List.iter
    (fun b ->
      if (not strict) || b.prio = priority then begin
        let dead =
          Mtbl.fold
            (fun key s acc -> if condemned s.entry then (key, s) :: acc else acc)
            b.exact []
        in
        List.iter (fun (key, _) -> Mtbl.remove b.exact key) dead;
        let dead_wild, kept =
          List.partition (fun s -> condemned s.entry) b.wild
        in
        b.wild <- kept;
        (* buckets iterate in priority order; seq restores insertion order
           within the bucket, matching the old flat-list partition *)
        gone :=
          !gone
          @ List.sort
              (fun a b -> compare a.seq b.seq)
              (List.map snd dead @ dead_wild)
      end)
    t.buckets;
  let removed = List.map (fun s -> s.entry) !gone in
  if removed <> [] then begin
    t.count <- t.count - List.length removed;
    drop_empty t;
    touch t
  end;
  removed

let apply t ~now (fm : Message.flow_mod) =
  match fm.command with
  | Add ->
      add t (Flow_entry.of_flow_mod ~now fm);
      []
  | Modify | Modify_strict ->
      let strict = fm.command = Modify_strict in
      if not (modify t ~strict fm.pattern ~priority:fm.priority fm.actions)
      then add t (Flow_entry.of_flow_mod ~now fm);
      []
  | Delete | Delete_strict ->
      let strict = fm.command = Delete_strict in
      delete t ~strict ?out_port:fm.out_port fm.pattern ~priority:fm.priority

let lookup t ~now ~in_port pkt =
  let live e = Flow_entry.live e ~now in
  (* The only fully-specified pattern a packet can match is its own exact
     header, so one hash probe per bucket replaces the scan for the common
     learning-switch/router rules. *)
  let exact_key = Ofp_match.exact ~in_port pkt in
  let rec over_buckets = function
    | [] -> None
    | b :: rest -> (
        let exact_hit =
          match Mtbl.find_opt b.exact exact_key with
          | Some s when live s.entry -> Some s
          | Some _ | None -> None
        in
        let wild_hit =
          List.find_opt
            (fun s -> live s.entry && Flow_entry.matches s.entry ~in_port pkt)
            b.wild
        in
        match (exact_hit, wild_hit) with
        | None, None -> over_buckets rest
        | Some s, None | None, Some s -> Some s.entry
        | Some a, Some b -> Some (if a.seq <= b.seq then a.entry else b.entry))
  in
  over_buckets t.buckets

let expire t ~now =
  let expired = ref [] in
  List.iter
    (fun b ->
      let dead =
        Mtbl.fold
          (fun key s acc ->
            match Flow_entry.expiry_reason s.entry ~now with
            | Some reason -> (key, s, reason) :: acc
            | None -> acc)
          b.exact []
      in
      List.iter (fun (key, _, _) -> Mtbl.remove b.exact key) dead;
      let dead_wild, kept =
        List.partition_map
          (fun s ->
            match Flow_entry.expiry_reason s.entry ~now with
            | Some reason -> Left (s, reason)
            | None -> Right s)
          b.wild
      in
      b.wild <- kept;
      expired :=
        !expired
        @ List.sort
            (fun (a, _) (b, _) -> compare a.seq b.seq)
            (List.map (fun (_, s, r) -> (s, r)) dead @ dead_wild))
    t.buckets;
  let removed = List.map (fun (s, r) -> (s.entry, r)) !expired in
  if removed <> [] then begin
    t.count <- t.count - List.length removed;
    drop_empty t;
    touch t
  end;
  removed

let find_exact t pattern ~priority =
  match find_bucket t priority with
  | None -> None
  | Some b ->
      if is_exact pattern then
        Option.map (fun s -> s.entry) (Mtbl.find_opt b.exact pattern)
      else
        Option.map
          (fun s -> s.entry)
          (List.find_opt
             (fun s -> Ofp_match.equal s.entry.Flow_entry.pattern pattern)
             b.wild)

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list Flow_entry.pp)
    (entries t)
