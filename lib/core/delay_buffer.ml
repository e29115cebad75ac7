open Openflow
module Net = Netsim.Net
module Command = Controller.Command

type t = { network : Net.t; mutable next_xid : int }

type txn = {
  mutable buffered : Command.t list;  (* newest first *)
  mutable closed : bool;
}

let create network = { network; next_xid = 1 }

let send t sid payload =
  let xid = t.next_xid in
  t.next_xid <- xid + 1;
  Net.send t.network sid (Message.message ~xid payload)

let begin_txn _ ~app:_ = { buffered = []; closed = false }

let apply t txn cmd =
  if txn.closed then invalid_arg "Delay_buffer.apply: transaction already closed";
  match cmd with
  | Command.Flow _ | Command.Packet _ | Command.Port _ ->
      txn.buffered <- cmd :: txn.buffered;
      []
  | Command.Stats (sid, req) ->
      (* Reads bypass the buffer — and therefore do not see the
         transaction's own writes; the prototype's known flaw. *)
      send t sid (Message.Stats_request req)
  | Command.Log _ -> []

let commit t txn =
  if not txn.closed then begin
    txn.closed <- true;
    List.iter
      (function
        | Command.Flow (sid, fm) -> ignore (send t sid (Message.Flow_mod fm))
        | Command.Packet (sid, po) -> ignore (send t sid (Message.Packet_out po))
        | Command.Port (sid, pm) -> ignore (send t sid (Message.Port_mod pm))
        | Command.Stats _ | Command.Log _ -> ())
      (List.rev txn.buffered)
  end

let abort _ txn =
  if not txn.closed then begin
    txn.closed <- true;
    txn.buffered <- []
  end
