type open_span = {
  o_id : int;
  o_parent : int;
  o_kind : Span.kind;
  o_vt : float;
  o_t0 : float;
  o_attrs : (string * string) list;
}

type state = {
  now : unit -> float;
  wall : unit -> float;
  ring : Span.t option array;
  mutable w : int;  (* next write slot *)
  mutable n_recorded : int;
  mutable n_dropped : int;
  mutable next_id : int;
  mutable stack : open_span list;  (* innermost first *)
  hists : Histogram.t array;  (* indexed like Span.all_kinds *)
}

type t = Noop | On of state

let noop = Noop

(* Indexed like [Span.all_kinds]; a direct match keeps [push_completed]
   off the polymorphic hash on the per-span hot path. *)
let kind_index : Span.kind -> int = function
  | Span.Event_root -> 0
  | Span.App_handle -> 1
  | Span.Detection -> 2
  | Span.Txn_commit -> 3
  | Span.Txn_rollback -> 4
  | Span.Recovery -> 5
  | Span.Delivery -> 6
  | Span.Retransmit -> 7
  | Span.Resync -> 8
  | Span.Inv_cache_hit -> 9
  | Span.Inv_cache_miss -> 10
  | Span.Ckpt_take -> 11
  | Span.Ckpt_restore -> 12
  | Span.Election -> 13
  | Span.Replicate -> 14
  | Span.State_transfer -> 15
  | Span.Failover -> 16
  | Span.Batch_root -> 17
  | Span.Shard_dispatch -> 18
  | Span.Vote -> 19
  | Span.Outvoted -> 20

let create ?(capacity = 65536) ?wall ~now () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity <= 0";
  let wall =
    match wall with
    | Some f -> f
    | None ->
        (* Logical time: one microsecond per tracer operation. Strictly
           monotonic and fully deterministic. *)
        let ticks = ref 0 in
        fun () ->
          incr ticks;
          float !ticks *. 1e-6
  in
  On
    {
      now;
      wall;
      ring = Array.make capacity None;
      w = 0;
      n_recorded = 0;
      n_dropped = 0;
      next_id = 1;
      stack = [];
      hists =
        Array.of_list (List.map (fun _ -> Histogram.create ()) Span.all_kinds);
    }

let enabled = function Noop -> false | On _ -> true

let push_completed st (span : Span.t) =
  if st.ring.(st.w) <> None then st.n_dropped <- st.n_dropped + 1;
  st.ring.(st.w) <- Some span;
  st.w <- (st.w + 1) mod Array.length st.ring;
  st.n_recorded <- st.n_recorded + 1;
  Histogram.observe st.hists.(kind_index span.kind) (Span.duration span)

let start t ?(attrs = []) kind =
  match t with
  | Noop -> -1
  | On st ->
      let id = st.next_id in
      st.next_id <- id + 1;
      let parent = match st.stack with [] -> -1 | o :: _ -> o.o_id in
      st.stack <-
        {
          o_id = id;
          o_parent = parent;
          o_kind = kind;
          o_vt = st.now ();
          o_t0 = st.wall ();
          o_attrs = attrs;
        }
        :: st.stack;
      id

let close st ?(attrs = []) (o : open_span) ~vt_end ~t1 =
  push_completed st
    {
      Span.id = o.o_id;
      parent = o.o_parent;
      kind = o.o_kind;
      vt = o.o_vt;
      vt_end;
      t0 = o.o_t0;
      t1;
      attrs = o.o_attrs @ attrs;
    }

let finish t ?(attrs = []) id =
  match t with
  | Noop -> ()
  | On st ->
      if List.exists (fun o -> o.o_id = id) st.stack then begin
        let vt_end = st.now () in
        let t1 = st.wall () in
        let rec pop () =
          match st.stack with
          | [] -> ()
          | o :: rest ->
              st.stack <- rest;
              if o.o_id = id then close st ~attrs o ~vt_end ~t1
              else begin
                (* An abandoned child: close it at the same instant so the
                   trace stays well-nested. *)
                close st o ~vt_end ~t1;
                pop ()
              end
        in
        pop ()
      end

let with_span t ?attrs kind f =
  match t with
  | Noop -> f ()
  | On _ ->
      let id = start t ?attrs kind in
      let r =
        try f ()
        with exn ->
          finish t id;
          raise exn
      in
      finish t id;
      r

let instant t ?(attrs = []) kind =
  match t with
  | Noop -> ()
  | On st ->
      let id = st.next_id in
      st.next_id <- id + 1;
      let parent = match st.stack with [] -> -1 | o :: _ -> o.o_id in
      let vt = st.now () in
      let w = st.wall () in
      push_completed st
        {
          Span.id;
          parent;
          kind;
          vt;
          vt_end = vt;
          t0 = w;
          t1 = w;
          attrs;
        }

let spans = function
  | Noop -> []
  | On st ->
      let n = Array.length st.ring in
      let out = ref [] in
      (* Oldest-first: slots [w .. w+n-1] mod n, skipping empties. *)
      for i = n - 1 downto 0 do
        match st.ring.((st.w + i) mod n) with
        | Some s -> out := s :: !out
        | None -> ()
      done;
      !out

let open_count = function Noop -> 0 | On st -> List.length st.stack
let recorded = function Noop -> 0 | On st -> st.n_recorded
let dropped = function Noop -> 0 | On st -> st.n_dropped

let histogram t kind =
  match t with Noop -> None | On st -> Some st.hists.(kind_index kind)

let clear = function
  | Noop -> ()
  | On st ->
      Array.fill st.ring 0 (Array.length st.ring) None;
      st.w <- 0;
      st.n_recorded <- 0;
      st.n_dropped <- 0;
      st.stack <- [];
      Array.iter Histogram.clear st.hists

let pp_summary fmt t =
  match t with
  | Noop -> Format.fprintf fmt "tracing disabled"
  | On st ->
      Format.fprintf fmt "@[<v>";
      List.iter
        (fun k ->
          let h = st.hists.(kind_index k) in
          if Histogram.count h > 0 then
            Format.fprintf fmt "%-10s %a@," (Span.kind_name k) Histogram.pp h)
        Span.all_kinds;
      Format.fprintf fmt "recorded=%d dropped=%d@]" st.n_recorded st.n_dropped
