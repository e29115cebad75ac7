open Openflow
module Net = Netsim.Net
module Clock = Netsim.Clock
module Flow_table = Netsim.Flow_table
module Flow_entry = Netsim.Flow_entry
module Command = Controller.Command

type saved_flow = {
  switch : Types.switch_id;
  entry : Flow_entry.t;  (* a private copy, counters frozen *)
  saved_at : float;
}

type undo =
  | Undo_add of Types.switch_id * Ofp_match.t * int
      (** Remove a rule the transaction installed. *)
  | Undo_restore of saved_flow
      (** Re-install a rule the transaction destroyed. *)
  | Undo_modify of Types.switch_id * Ofp_match.t * int * Action.t list
      (** Put a rewritten action list back. *)
  | Undo_port_mod of Types.switch_id * Message.port_mod
      (** Put a port's previous OFPPC_NO_FLOOD setting back. *)
  | Undo_recredit of Types.switch_id * Ofp_match.t * int * int * int
      (** Re-bank counter-cache credits an Add consumed (switch, pattern,
          priority, packets, bytes). *)

type txn = {
  app : string;
  mutable undos : undo list;  (* newest first: rollback order *)
  mutable applied : Command.t list;  (* newest first *)
  mutable closed : bool;
}

(* One closed transaction, as the close hook receives it. Commands are
   kept structurally (not re-encoded) so the record is cheap to build on
   the commit path and still byte-comparable across runs. *)
type journal_entry = {
  je_app : string;
  je_committed : bool;
  je_ops : Command.t list;  (** in application order *)
  je_rolled_back : int;  (** undos executed; 0 for commits *)
}

type t = {
  network : Net.t;
  send : Types.switch_id -> Message.t -> Message.t list;
  counter_cache : Counter_cache.t;
  mutable next_xid : int;
  mutable n_committed : int;
  mutable n_aborted : int;
  mutable n_rolled_back : int;
  mutable on_close : journal_entry -> unit;
  mutable tracer : Obs.Tracer.t;
}

let create ?transport ?(xid_base = 1) ?metrics network =
  {
    network;
    send =
      (match transport with
      | Some f -> f
      | None -> Net.send network);
    counter_cache =
      Counter_cache.create
        ~on_evict:
          (match metrics with
          | Some m -> fun () -> Metrics.bump m Metrics.counter_cache_evictions
          | None -> fun () -> ())
        ();
    next_xid = xid_base;
    n_committed = 0;
    n_aborted = 0;
    n_rolled_back = 0;
    on_close = ignore;
    tracer = Obs.Tracer.noop;
  }

let set_tracer t tracer = t.tracer <- tracer
let set_close_hook t f = t.on_close <- f

let cache t = t.counter_cache
let next_xid t = t.next_xid
let committed t = t.n_committed
let aborted t = t.n_aborted
let ops_rolled_back t = t.n_rolled_back

let begin_txn _t ~app = { app; undos = []; applied = []; closed = false }

let now t = Clock.now (Net.clock t.network)

let fresh_xid t =
  let x = t.next_xid in
  t.next_xid <- t.next_xid + 1;
  x

let copy_entry (e : Flow_entry.t) = { e with Flow_entry.priority = e.priority }

let table_of t sid =
  try Some (Net.switch t.network sid).Netsim.Sw.table with Not_found -> None

(* Entries a modify/delete with these parameters will touch on the switch. *)
let touched_entries t sid ~strict ?out_port pattern ~priority =
  match table_of t sid with
  | None -> []
  | Some table ->
      Flow_table.touched table ~strict ?out_port pattern ~priority

(* The undo list for one flow-mod, in the order the undos must run. *)
let flow_mod_undos t sid (fm : Message.flow_mod) =
  match fm.command with
  | Message.Add ->
      let replaced =
        match table_of t sid with
        | None -> None
        | Some table -> Flow_table.find_exact table fm.pattern ~priority:fm.priority
      in
      let base = [ Undo_add (sid, fm.pattern, fm.priority) ] in
      (match replaced with
      | None -> base
      | Some e ->
          base
          @ [ Undo_restore { switch = sid; entry = copy_entry e; saved_at = now t } ])
  | Message.Modify | Message.Modify_strict ->
      let strict = fm.command = Message.Modify_strict in
      let touched =
        touched_entries t sid ~strict fm.pattern ~priority:fm.priority
      in
      if touched = [] then
        (* Modify with no match adds a rule: undo is a removal. *)
        [ Undo_add (sid, fm.pattern, fm.priority) ]
      else
        List.map
          (fun (e : Flow_entry.t) ->
            Undo_modify (sid, e.pattern, e.priority, e.actions))
          touched
  | Message.Delete | Message.Delete_strict ->
      let strict = fm.command = Message.Delete_strict in
      touched_entries t sid ~strict ?out_port:fm.out_port fm.pattern
        ~priority:fm.priority
      |> List.map (fun e ->
             Undo_restore
               { switch = sid; entry = copy_entry e; saved_at = now t })

let apply t txn cmd =
  if txn.closed then invalid_arg "Netlog.apply: transaction already closed";
  let xid = fresh_xid t in
  let replies =
    match cmd with
    | Command.Flow (sid, fm) ->
        let undos = flow_mod_undos t sid fm in
        (* An application reinstalling a rule is a legitimate counter
           reset: the banked base must go, or later stats would resurrect
           pre-reset traffic. Consumption is transactional — abort
           re-credits. *)
        let undos =
          if fm.command = Message.Add then
            match
              Counter_cache.consume t.counter_cache sid fm.pattern
                ~priority:fm.priority
            with
            | Some (packets, bytes) ->
                Undo_recredit (sid, fm.pattern, fm.priority, packets, bytes)
                :: undos
            | None -> undos
          else undos
        in
        txn.undos <- undos @ txn.undos;
        t.send sid (Message.message ~xid (Message.Flow_mod fm))
    | Command.Packet (sid, po) ->
        (* Packets already on the wire cannot be recalled; no inverse. *)
        t.send sid (Message.message ~xid (Message.Packet_out po))
    | Command.Port (sid, pm) ->
        (* Capture the previous flag to restore it on abort. *)
        (try
           let sw = Net.switch t.network sid in
           match Netsim.Sw.port sw pm.Message.pm_port_no with
           | Some p ->
               txn.undos <-
                 Undo_port_mod
                   ( sid,
                     {
                       Message.pm_port_no = pm.Message.pm_port_no;
                       pm_no_flood = p.Netsim.Sw.no_flood;
                     } )
                 :: txn.undos
           | None -> ()
         with Not_found -> ());
        t.send sid (Message.message ~xid (Message.Port_mod pm))
    | Command.Stats (sid, req) ->
        t.send sid (Message.message ~xid (Message.Stats_request req))
        |> List.map (fun (reply : Message.t) ->
               match reply.payload with
               | Message.Stats_reply sr ->
                   {
                     reply with
                     payload =
                       Message.Stats_reply
                         (Counter_cache.adjust_reply t.counter_cache sid
                            ~request:req sr);
                   }
               | _ -> reply)
    | Command.Log _ -> []
  in
  txn.applied <- cmd :: txn.applied;
  replies

let run_undo t = function
  | Undo_recredit (sid, pattern, priority, packets, bytes) ->
      Counter_cache.credit t.counter_cache sid pattern ~priority ~packets
        ~bytes
  | Undo_port_mod (sid, pm) ->
      ignore
        (t.send sid
           (Message.message ~xid:(fresh_xid t) (Message.Port_mod pm)))
  | Undo_add (sid, pattern, priority) ->
      ignore
        (t.send sid
           (Message.message ~xid:(fresh_xid t)
              (Message.Flow_mod (Message.flow_delete ~strict:true ~priority pattern))))
  | Undo_modify (sid, pattern, priority, actions) ->
      let fm =
        {
          (Message.flow_add ~priority pattern actions) with
          Message.command = Message.Modify_strict;
        }
      in
      ignore
        (t.send sid
           (Message.message ~xid:(fresh_xid t) (Message.Flow_mod fm)))
  | Undo_restore { switch = sid; entry = e; saved_at } ->
      (* Remaining lifetime as of the moment the rule was destroyed; a rule
         whose hard timeout had (almost) elapsed is not resurrected. *)
      let elapsed = int_of_float (saved_at -. e.installed_at) in
      let remaining_hard =
        if e.hard_timeout = 0 then 0 else e.hard_timeout - elapsed
      in
      if e.hard_timeout > 0 && remaining_hard <= 0 then ()
      else begin
        (* OpenFlow cannot install non-zero counters: bank them. *)
        if e.packet_count > 0 || e.byte_count > 0 then
          Counter_cache.credit t.counter_cache sid e.pattern
            ~priority:e.priority ~packets:e.packet_count ~bytes:e.byte_count;
        let fm =
          Message.flow_add ~cookie:e.cookie ~idle_timeout:e.idle_timeout
            ~hard_timeout:remaining_hard ~priority:e.priority
            ~notify_when_removed:e.notify_when_removed e.pattern e.actions
        in
        ignore
          (t.send sid
             (Message.message ~xid:(fresh_xid t) (Message.Flow_mod fm)))
      end

let commit t txn =
  if not txn.closed then begin
    txn.closed <- true;
    t.n_committed <- t.n_committed + 1;
    t.on_close
      {
        je_app = txn.app;
        je_committed = true;
        je_ops = List.rev txn.applied;
        je_rolled_back = 0;
      }
  end

let abort t txn =
  if not txn.closed then begin
    txn.closed <- true;
    t.n_aborted <- t.n_aborted + 1;
    let attrs =
      if Obs.Tracer.enabled t.tracer then
        [ ("app", txn.app); ("undos", string_of_int (List.length txn.undos)) ]
      else []
    in
    Obs.Tracer.with_span t.tracer ~attrs Obs.Span.Txn_rollback (fun () ->
        List.iter
          (fun undo ->
            t.n_rolled_back <- t.n_rolled_back + 1;
            run_undo t undo)
          txn.undos);
    t.on_close
      {
        je_app = txn.app;
        je_committed = false;
        je_ops = List.rev txn.applied;
        je_rolled_back = List.length txn.undos;
      };
    txn.undos <- []
  end
