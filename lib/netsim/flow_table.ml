open Openflow

(* A table is a mutable handle on an immutable version; every change
   builds a new version that shares all it did not touch with the old one,
   so capturing a table is reading its handle. A version holds its
   priorities as a list in descending order. Within a priority,
   fully-specified patterns sit in a persistent exact-match index and
   wildcarded patterns in an insertion-ordered list; a per-version sequence
   number stamps every entry so the first-inserted-wins tie rule of a flat
   list holds across the two. Entry records are shared between versions, so
   counter and idle-time updates from live traffic reach every version
   holding the entry. *)

type slot = { seq : int; entry : Flow_entry.t }

(* The exact-match index keys on [Ofp_match.hash] (FNV over the fields);
   each key's chain holds the slots whose patterns share that hash, at most
   one per pattern, so almost always one. Stored patterns are interned, so
   chain probes on interned keys are pointer compares. *)
module Imap = Map.Make (Int)

type prio = {
  prio : int;
  exact : slot list Imap.t;  (* fully-specified patterns *)
  wild : slot list;  (* wildcarded patterns, insertion order *)
}

let is_exact pattern = Ofp_match.wildcard_count pattern = 0
let by_seq a b = Int.compare a.seq b.seq

let touches ~strict ?out_port pattern ~priority (e : Flow_entry.t) =
  (if strict then priority = e.priority && Ofp_match.equal pattern e.pattern
   else Ofp_match.subsumes pattern e.pattern)
  &&
  match out_port with
  | None -> true
  | Some p -> List.mem p (Action.outputs e.actions)

(* [p] with [f] applied to every slot [pick] selects ([None] removes the
   slot), and the selected slots in insertion order; [p] itself when
   nothing is selected. [key], a fully-specified pattern, limits the search
   to the chain under its hash: a pattern with no wildcard subsumes, and
   equals, only itself. [wild_only] limits it to the wildcarded rules,
   which is all a strict operation on a wildcarded pattern can touch. *)
let edit ?key ?(wild_only = false) ~pick ~f p =
  let hits = ref [] in
  let picked s = pick s.entry in
  let edit_chain chain =
    if not (List.exists picked chain) then chain
    else
      List.filter_map
        (fun s ->
          if picked s then begin
            hits := s :: !hits;
            f s
          end
          else Some s)
        chain
  in
  let edit_key h m =
    match Imap.find_opt h m with
    | None -> m
    | Some chain -> (
        let chain' = edit_chain chain in
        if chain' == chain then m
        else match chain' with [] -> Imap.remove h m | _ -> Imap.add h chain' m)
  in
  let exact =
    match key with
    | Some pattern -> edit_key (Ofp_match.hash pattern) p.exact
    | None when wild_only -> p.exact
    | None ->
        Imap.fold
          (fun h chain m -> if List.exists picked chain then edit_key h m else m)
          p.exact p.exact
  in
  let wild = if Option.is_none key then edit_chain p.wild else p.wild in
  match !hits with
  | [] -> (p, [])
  | hits -> ({ p with exact; wild }, List.sort by_seq hits)

let is_empty p = Imap.is_empty p.exact && p.wild = []

module Version = struct
  type t = { prios : prio list; count : int; next_seq : int }

  let empty = { prios = []; count = 0; next_seq = 0 }
  let size v = v.count

  let slots p =
    Imap.fold (fun _ chain acc -> List.rev_append chain acc) p.exact p.wild
    |> List.sort by_seq

  let entries v =
    List.concat_map (fun p -> List.map (fun s -> s.entry) (slots p)) v.prios

  (* Put [p] in place of the priority it names, keeping the list
     descending; an empty [p] leaves the priority out. The priorities above
     it are copied, those below shared. *)
  let replace prios p =
    let rec go = function
      | [] -> if is_empty p then [] else [ p ]
      | q :: rest as all ->
          if q.prio = p.prio then if is_empty p then rest else p :: rest
          else if p.prio > q.prio then if is_empty p then all else p :: all
          else q :: go rest
    in
    go prios

  let find_prio v priority = List.find_opt (fun p -> p.prio = priority) v.prios

  (* OF 1.0 Add semantics: an identical match+priority twin is replaced,
     and the new entry goes last in its priority's insertion order. *)
  let add v (entry : Flow_entry.t) =
    let s = { seq = v.next_seq; entry } in
    let twin s' = Ofp_match.equal s'.entry.Flow_entry.pattern entry.pattern in
    let p =
      Option.value
        ~default:{ prio = entry.priority; exact = Imap.empty; wild = [] }
        (find_prio v entry.priority)
    in
    let replaced = ref 0 in
    let drop_twin chain =
      let kept = List.filter (fun s' -> not (twin s')) chain in
      replaced := List.length chain - List.length kept;
      kept
    in
    let p =
      if is_exact entry.pattern then
        let h = Ofp_match.hash entry.pattern in
        let chain = Option.value ~default:[] (Imap.find_opt h p.exact) in
        { p with exact = Imap.add h (s :: drop_twin chain) p.exact }
      else { p with wild = drop_twin p.wild @ [ s ] }
    in
    {
      prios = replace v.prios p;
      count = v.count + 1 - !replaced;
      next_seq = v.next_seq + 1;
    }

  (* [v] with [edit] applied to the priority [only] names, or to every
     priority without it, and the slots it touched in priority order; [v]
     itself when it touched nothing. A priority left empty is dropped. *)
  let edit_prios ?only v edit =
    match only with
    | Some priority -> (
        match Option.map edit (find_prio v priority) with
        | None | Some (_, []) -> (v, [])
        | Some (p', hits) -> ({ v with prios = replace v.prios p' }, hits))
    | None -> (
        let hits = ref [] in
        let prios =
          List.filter_map
            (fun p ->
              match edit p with
              | _, [] -> Some p
              | p', h ->
                  hits := h :: !hits;
                  if is_empty p' then None else Some p')
            v.prios
        in
        match !hits with
        | [] -> (v, [])
        | hits -> ({ v with prios }, List.concat (List.rev hits)))

  (* What a modify or delete with this pattern can touch: one priority if
     strict, and within a priority only the chain of a fully-specified
     pattern, or only the wildcarded rules when strict. *)
  let edit_touched v ~strict ?out_port pattern ~priority ~f =
    let key = if is_exact pattern then Some pattern else None in
    edit_prios
      ?only:(if strict then Some priority else None)
      v
      (edit ?key ~wild_only:strict
         ~pick:(touches ~strict ?out_port pattern ~priority)
         ~f)

  let modify v ~strict pattern ~priority actions =
    let rewrite s = Some { s with entry = { s.entry with Flow_entry.actions } } in
    fst (edit_touched v ~strict pattern ~priority ~f:rewrite)

  (* An edit of [v] that removed the slots it touched: the new version
     with its count, and the removed entries. *)
  let removal v = function
    | _, [] -> (v, [])
    | v', gone ->
        let removed = List.map (fun s -> s.entry) gone in
        ({ v' with count = v.count - List.length removed }, removed)

  let delete v ~strict ?out_port pattern ~priority =
    removal v
      (edit_touched v ~strict ?out_port pattern ~priority ~f:(fun _ -> None))

  let apply v ~now (fm : Message.flow_mod) =
    match fm.command with
    | Add -> (add v (Flow_entry.of_flow_mod ~now fm), [])
    | Modify | Modify_strict ->
        let strict = fm.command = Modify_strict in
        let v' = modify v ~strict fm.pattern ~priority:fm.priority fm.actions in
        ((if v' == v then add v (Flow_entry.of_flow_mod ~now fm) else v'), [])
    | Delete | Delete_strict ->
        let strict = fm.command = Delete_strict in
        delete v ~strict ?out_port:fm.out_port fm.pattern ~priority:fm.priority

  (* The only fully-specified pattern a packet can match is its own exact
     header, so one probe per priority's index replaces a scan of its exact
     rules. The header is built and hashed at the first priority that has
     an exact rule, and not at all when none has: a table of wildcarded
     rules pays only their scan. *)
  let lookup v ~now ~in_port pkt =
    let live s = Flow_entry.live s.entry ~now in
    let rec first_wild = function
      | [] -> None
      | s :: rest ->
          if live s && Flow_entry.matches s.entry ~in_port pkt then Some s
          else first_wild rest
    in
    let rec in_chain key = function
      | [] -> None
      | s :: rest ->
          if Ofp_match.equal s.entry.Flow_entry.pattern key then
            if live s then Some s else None
          else in_chain key rest
    in
    (* [h < 0]: the header is not built yet ([Ofp_match.hash] is
       non-negative). *)
    let rec over key h = function
      | [] -> None
      | p :: rest when Imap.is_empty p.exact -> (
          match first_wild p.wild with
          | Some s -> Some s.entry
          | None -> over key h rest)
      | _ :: _ as prios when h < 0 ->
          let key = Ofp_match.exact ~in_port pkt in
          over key (Ofp_match.hash key) prios
      | p :: rest -> (
          let exact =
            match Imap.find_opt h p.exact with
            | Some chain -> in_chain key chain
            | None -> None
          in
          match (exact, first_wild p.wild) with
          | None, None -> over key h rest
          | Some s, None | None, Some s -> Some s.entry
          | Some a, Some b ->
              Some (if a.seq <= b.seq then a.entry else b.entry))
    in
    over Ofp_match.any (-1) v.prios

  (* Expiry is rare against the per-tick scan, so the scan only reads:
     the version is rebuilt only when some entry has timed out. *)
  let expire v ~now =
    let dead (e : Flow_entry.t) = not (Flow_entry.live e ~now) in
    let dead_slot s = dead s.entry in
    let dead_chain _ chain = List.exists dead_slot chain in
    let any_dead =
      List.exists
        (fun p -> Imap.exists dead_chain p.exact || List.exists dead_slot p.wild)
        v.prios
    in
    if not any_dead then (v, [])
    else
      let v', expired =
        removal v (edit_prios v (edit ~pick:dead ~f:(fun _ -> None)))
      in
      ( v',
        List.map
          (fun e -> (e, Option.get (Flow_entry.expiry_reason e ~now)))
          expired )

  let fold_wild f v acc =
    List.fold_left
      (fun acc p -> List.fold_left (fun acc s -> f s.entry acc) acc p.wild)
      acc v.prios

  let find_exact v pattern ~priority =
    match find_prio v priority with
    | None -> None
    | Some p ->
        let chain =
          if is_exact pattern then
            Option.value ~default:[] (Imap.find_opt (Ofp_match.hash pattern) p.exact)
          else p.wild
        in
        List.find_opt
          (fun s -> Ofp_match.equal s.entry.Flow_entry.pattern pattern)
          chain
        |> Option.map (fun s -> s.entry)
end

(* What each of the last [ring_size] changes could alter a lookup for:
   slot [g mod ring_size] holds the patterns of the change that made
   generation [g], or [None] for a clear. A table gets its ring on the
   first {!changed_since}, so one nobody reads (a shadow table) keeps none.
   A stored pattern is interned: an add's is its entry's own. On the
   end-to-end benchmark's workloads a switch changes at most 31 times
   between two captures (faults-k4's start-up installs; on microflow-k4,
   1 to 3), so 32 slots never lap there. *)
let ring_size = 32

type t = {
  mutable current : Version.t;
  mutable gen : int;
  mutable changes : Ofp_match.t list option array;  (* [||]: no ring yet *)
}

let create () = { current = Version.empty; gen = 0; changes = [||] }
let current t = t.current
let size t = Version.size t.current
let generation t = t.gen

(* Every change to the rule set goes through here: the version swaps, the
   generation bumps and the ring, if there is one, records what the change
   could alter. *)
let swap t v change =
  t.current <- v;
  t.gen <- t.gen + 1;
  if Array.length t.changes > 0 then
    t.changes.(t.gen mod ring_size) <-
      Option.map (List.map Ofp_match.intern) change

(* Slots the ring has not written since it was made hold [None], so a walk
   back past its making gives up as it does past a clear. *)
let changed_since t ~gen =
  let rec collect g acc =
    if g = gen then Some acc
    else
      match t.changes.(g mod ring_size) with
      | None -> None
      | Some patterns -> collect (g - 1) (List.rev_append patterns acc)
  in
  if Array.length t.changes = 0 then begin
    t.changes <- Array.make ring_size None;
    None
  end
  else if gen < 0 || gen > t.gen || t.gen - gen > ring_size then None
  else collect t.gen []

let entries t = Version.entries t.current

let clear t = swap t Version.empty None
let add t (entry : Flow_entry.t) =
  swap t (Version.add t.current entry) (Some [ entry.pattern ])

let modify t ~strict pattern ~priority actions =
  let v = Version.modify t.current ~strict pattern ~priority actions in
  let hit = v != t.current in
  if hit then swap t v (Some [ pattern ]);
  hit

let delete t ~strict ?out_port pattern ~priority =
  let v, removed =
    Version.delete t.current ~strict ?out_port pattern ~priority
  in
  if removed <> [] then swap t v (Some [ pattern ]);
  removed

let touched t ~strict ?out_port pattern ~priority =
  snd (Version.delete t.current ~strict ?out_port pattern ~priority)

let apply t ~now (fm : Message.flow_mod) =
  let v, removed = Version.apply t.current ~now fm in
  if v != t.current then swap t v (Some [ fm.pattern ]);
  removed

let lookup t ~now ~in_port pkt = Version.lookup t.current ~now ~in_port pkt

(* An expire alters no lookup: an entry it removes was already dead, so it
   answered no lookup at this instant or later. *)
let expire t ~now =
  let v, expired = Version.expire t.current ~now in
  if expired <> [] then swap t v (Some []);
  expired

let find_exact t pattern ~priority =
  Version.find_exact t.current pattern ~priority

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list Flow_entry.pp)
    (entries t)
