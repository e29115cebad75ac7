open Openflow
open Controller

module Sid_map = Map.Make (Int)

type state = {
  totals : int Sid_map.t;  (* latest byte totals per switch *)
  n_polls : int;
  n_regressions : int;
}

let name = "monitor"
let subscriptions = [ Event.K_tick; Event.K_stats_reply ]

let init () = { totals = Sid_map.empty; n_polls = 0; n_regressions = 0 }

let bytes_seen st sid = Option.value (Sid_map.find_opt sid st.totals) ~default:0
let regressions st = st.n_regressions

let handle (ctx : App_sig.context) st = function
  | Event.Tick _ ->
      let switches = App_sig.switches ctx in
      let polls =
        List.map
          (fun sid ->
            Command.Stats (sid, Message.Aggregate_stats_request Ofp_match.any))
          switches
      in
      ({ st with n_polls = st.n_polls + List.length polls }, polls)
  | Event.Stats_reply (sid, _xid, Message.Aggregate_stats_reply agg) ->
      let previous = bytes_seen st sid in
      let st =
        {
          st with
          totals = Sid_map.add sid agg.bytes st.totals;
          n_regressions =
            (if agg.bytes < previous then st.n_regressions + 1
             else st.n_regressions);
        }
      in
      (st, [])
  | _ -> (st, [])
