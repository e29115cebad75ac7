open Openflow
open Controller

module Sid_map = Map.Make (Int)

type state = int Sid_map.t  (* latest byte total per switch *)

let name = "monitor"
let subscriptions = [ Event.K_tick; Event.K_stats_reply ]

let init () = Sid_map.empty

let handle (ctx : App_sig.context) st = function
  | Event.Tick _ ->
      ( st,
        List.map
          (fun sid ->
            Command.Stats (sid, Message.Aggregate_stats_request Ofp_match.any))
          (App_sig.switches ctx) )
  | Event.Stats_reply (sid, _xid, Message.Aggregate_stats_reply agg) ->
      (* A total already held leaves the map, and so the state, as it was. *)
      (Sid_map.add sid agg.bytes st, [])
  | _ -> (st, [])
