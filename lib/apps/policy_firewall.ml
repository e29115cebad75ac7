open Openflow
open Controller

(* The firewall, restated as intent: the entire behavior lives in the
   declared policy — [handle] never emits a command. The runtime compiles
   the intent to flow tables and keeps them reconciled; Crash-Pad can
   re-derive the full table from [policy] alone after any failure. *)

type state = unit

let name = "policy_firewall"
let subscriptions = [ Event.K_switch_up; Event.K_packet_in ]
let init () = ()

let intent =
  let blocked =
    Policy.conj
      [
        Policy.Test (Policy.Dl_type Packet.ethertype_ip);
        Policy.Test (Policy.Nw_proto Packet.proto_tcp);
        Policy.disj
          (List.map
             (fun p -> Policy.Test (Policy.Tp_dst p))
             Firewall.blocked_ports);
      ]
  in
  Policy.ite blocked Policy.drop Policy.flood

let handle _ st _ = (st, [])
let policy _ _ = Some intent
