type delivery =
  | Sent of { sw : Openflow.Types.switch_id; xid : int }
  | Queued of { sw : Openflow.Types.switch_id; xid : int }
  | Retransmitted of { sw : Openflow.Types.switch_id; xid : int; attempt : int }
  | Acked of { sw : Openflow.Types.switch_id; xid : int }
  | Degraded of { sw : Openflow.Types.switch_id }
  | Resynced of { sw : Openflow.Types.switch_id; rules : int }

type event =
  | Dispatched of Controller.Event.t
  | Inv_cache of Invariants.Incremental.event
  | Delivery of delivery

type subscription = int

type t = {
  mutable subs : (subscription * (event -> unit)) list;  (* oldest first *)
  mutable next : subscription;
}

let create () = { subs = []; next = 1 }

let subscribe t f =
  let id = t.next in
  t.next <- id + 1;
  t.subs <- t.subs @ [ (id, f) ];
  id

let unsubscribe t id = t.subs <- List.filter (fun (id', _) -> id' <> id) t.subs

let emit t ev =
  (* Snapshot so a subscriber that (un)subscribes mid-emit doesn't
     perturb this delivery round. *)
  let subs = t.subs in
  List.iter (fun (_, f) -> f ev) subs

let subscriber_count t = List.length t.subs
