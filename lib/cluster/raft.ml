(* A Raft-shaped consensus core for the simulated controller cluster:
   term-based leader election with randomized-but-seeded timeouts, log
   replication with the standard consistency check, and the current-term
   commit rule. Deliberately message-passing and side-effect free at the
   edges: [tick] and [receive] return the messages to transmit, and the
   cluster layer owns delivery (through the seeded channel fault model),
   so a whole election is a deterministic function of (seeds, virtual
   clock).

   Differences from full Raft, justified by the simulation setting: no
   persistence (a killed controller never rejoins — crash-stop, not
   crash-recovery), and no membership changes. *)

type entry = { term : int; event : Controller.Event.t; size : int }

type role = Follower | Candidate | Leader

type msg =
  | Request_vote of {
      term : int;
      candidate : int;
      last_index : int;
      last_term : int;
    }
  | Vote of { term : int; voter : int; granted : bool }
  | Append_entries of {
      term : int;
      leader : int;
      prev_index : int;
      prev_term : int;
      entries : entry list;
      commit : int;
    }
  | Append_reply of {
      term : int;
      follower : int;
      success : bool;
      match_index : int;
    }

type t = {
  id : int;
  peers : int array;  (* every other node *)
  quorum : int;  (* majority of the full cluster, self included *)
  (* 1-based log in a growable array; log.(i-1) is entry i. *)
  mutable log : entry array;
  mutable len : int;
  mutable current_term : int;
  mutable voted_for : int option;
  mutable state : role;
  mutable commit : int;
  (* Election timer: expired when [now - last_contact >= timeout]. The
     timeout is redrawn from the seeded rng on every reset, so election
     races resolve the same way on every replay. *)
  mutable last_contact : float;
  mutable timeout : float;
  rng : Random.State.t;
  lo : float;
  hi : float;
  (* A leader's view of each peer, slot k for [peers.(k)]; -1 until this
     node first leads. *)
  next_index : int array;
  match_index : int array;
  mutable votes : int list;
  mutable n_elections : int;
}

let draw_timeout t = t.lo +. Random.State.float t.rng (t.hi -. t.lo)

let reset_timer t ~now =
  t.last_contact <- now;
  t.timeout <- draw_timeout t

let create ~id ~peers ~seed ~lo ~hi ~now =
  if hi <= lo || lo <= 0. then
    invalid_arg "Raft.create: need 0 < election_lo < election_hi";
  let others = Array.of_list (List.filter (fun p -> p <> id) peers) in
  let t =
    {
      id;
      peers = others;
      quorum = (List.length peers / 2) + 1;
      log = [||];
      len = 0;
      current_term = 0;
      voted_for = None;
      state = Follower;
      commit = 0;
      last_contact = now;
      timeout = 0.;
      rng = Random.State.make [| 0xC10; seed; id |];
      lo;
      hi;
      next_index = Array.make (Array.length others) (-1);
      match_index = Array.make (Array.length others) (-1);
      votes = [];
      n_elections = 0;
    }
  in
  t.timeout <- draw_timeout t;
  t

(* The slot of [peer] in [t.peers], -1 for a node outside the cluster. *)
let slot t peer =
  let rec go k =
    if k = Array.length t.peers then -1
    else if t.peers.(k) = peer then k
    else go (k + 1)
  in
  go 0

let id t = t.id
let role t = t.state
let term t = t.current_term
let commit_index t = t.commit
let last_index t = t.len
let quorum t = t.quorum
let elections_started t = t.n_elections
let deadline t = t.last_contact +. t.timeout

let entry t i =
  if i < 1 || i > t.len then
    invalid_arg (Printf.sprintf "Raft.entry: index %d outside [1, %d]" i t.len);
  t.log.(i - 1)

let last_term t = if t.len = 0 then 0 else t.log.(t.len - 1).term

let push t e =
  if t.len = Array.length t.log then begin
    let grown = Array.make (max 16 (2 * t.len)) e in
    Array.blit t.log 0 grown 0 t.len;
    t.log <- grown
  end;
  t.log.(t.len) <- e;
  t.len <- t.len + 1

let entries_from t i =
  let rec take k acc = if k < i then acc else take (k - 1) (entry t k :: acc) in
  take t.len []

let append t ~size event =
  if t.state <> Leader then invalid_arg "Raft.append: not leader";
  push t { term = t.current_term; event; size };
  t.len

(* One Append_entries for the peer in slot [k], from its next_index. *)
let append_for t k =
  let next = if t.next_index.(k) < 0 then t.len + 1 else t.next_index.(k) in
  let prev_index = next - 1 in
  let prev_term = if prev_index = 0 then 0 else (entry t prev_index).term in
  Append_entries
    {
      term = t.current_term;
      leader = t.id;
      prev_index;
      prev_term;
      entries = entries_from t next;
      commit = t.commit;
    }

let heartbeats t =
  List.init (Array.length t.peers) (fun k -> (t.peers.(k), append_for t k))

let become_follower t term =
  t.current_term <- term;
  t.state <- Follower;
  t.voted_for <- None;
  t.votes <- []

let become_leader t =
  t.state <- Leader;
  Array.fill t.next_index 0 (Array.length t.peers) (t.len + 1);
  Array.fill t.match_index 0 (Array.length t.peers) 0;
  heartbeats t

(* Majority-replicated and of the current term: the Raft commit rule —
   a leader never commits a previous-term entry directly, only by
   committing one of its own term past it. *)
let advance_commit t =
  let n = ref t.len in
  let committed = ref false in
  while (not !committed) && !n > t.commit do
    let replicas =
      Array.fold_left
        (fun acc m -> if m >= !n then acc + 1 else acc)
        1 t.match_index
    in
    if replicas >= t.quorum && (entry t !n).term = t.current_term then begin
      t.commit <- !n;
      committed := true
    end
    else decr n
  done

let start_election t ~now =
  t.n_elections <- t.n_elections + 1;
  t.current_term <- t.current_term + 1;
  t.state <- Candidate;
  t.voted_for <- Some t.id;
  t.votes <- [ t.id ];
  reset_timer t ~now;
  if t.quorum <= 1 then become_leader t
  else
    List.map
      (fun p ->
        ( p,
          Request_vote
            {
              term = t.current_term;
              candidate = t.id;
              last_index = t.len;
              last_term = last_term t;
            } ))
      (Array.to_list t.peers)

let tick t ~now =
  match t.state with
  | Leader -> heartbeats t
  | Follower | Candidate ->
      if now -. t.last_contact >= t.timeout then start_election t ~now else []

let receive t ~now msg =
  match msg with
  | Request_vote { term; candidate; last_index; last_term = cand_last_term } ->
      if term > t.current_term then become_follower t term;
      let up_to_date =
        cand_last_term > last_term t
        || (cand_last_term = last_term t && last_index >= t.len)
      in
      let granted =
        term = t.current_term && up_to_date
        && (match t.voted_for with None -> true | Some v -> v = candidate)
        && t.state = Follower
      in
      if granted then begin
        t.voted_for <- Some candidate;
        reset_timer t ~now
      end;
      [ (candidate, Vote { term = t.current_term; voter = t.id; granted }) ]
  | Vote { term; voter; granted } ->
      if term > t.current_term then begin
        become_follower t term;
        []
      end
      else if
        t.state = Candidate && term = t.current_term && granted
        && not (List.mem voter t.votes)
      then begin
        t.votes <- voter :: t.votes;
        if List.length t.votes >= t.quorum then become_leader t else []
      end
      else []
  | Append_entries { term; leader; prev_index; prev_term; entries; commit } ->
      if term < t.current_term then
        [
          ( leader,
            Append_reply
              {
                term = t.current_term;
                follower = t.id;
                success = false;
                match_index = 0;
              } );
        ]
      else begin
        if term > t.current_term || t.state <> Follower then
          become_follower t term;
        reset_timer t ~now;
        let consistent =
          prev_index = 0
          || (prev_index <= t.len && (entry t prev_index).term = prev_term)
        in
        if not consistent then
          [
            ( leader,
              Append_reply
                {
                  term = t.current_term;
                  follower = t.id;
                  success = false;
                  match_index = 0;
                } );
          ]
        else begin
          (* Append, truncating at the first conflicting entry. Entries
             already present with matching terms are left alone — never
             truncate what an older message merely fails to mention. *)
          List.iteri
            (fun k e ->
              let i = prev_index + 1 + k in
              if i <= t.len && (entry t i).term <> e.term then t.len <- i - 1;
              if i > t.len then push t e)
            entries;
          let last_new = prev_index + List.length entries in
          if commit > t.commit then t.commit <- max t.commit (min commit last_new);
          [
            ( leader,
              Append_reply
                {
                  term = t.current_term;
                  follower = t.id;
                  success = true;
                  match_index = last_new;
                } );
          ]
        end
      end
  | Append_reply { term; follower; success; match_index } ->
      if term > t.current_term then become_follower t term
      else if t.state = Leader && term = t.current_term then begin
        let k = slot t follower in
        if success then begin
          if k >= 0 then begin
            let prev = max 0 t.match_index.(k) in
            t.match_index.(k) <- max prev match_index;
            t.next_index.(k) <- max prev match_index + 1
          end;
          advance_commit t
        end
        else if k >= 0 then begin
          let next =
            if t.next_index.(k) < 0 then t.len + 1 else t.next_index.(k)
          in
          t.next_index.(k) <- max 1 (next - 1)
        end
      end;
      []
