(** Timed network-fault schedules for experiments. *)

type timed_fault = float * Netsim.Net.fault

val link_flap :
  a:Netsim.Topology.node ->
  b:Netsim.Topology.node ->
  down_at:float ->
  up_at:float ->
  timed_fault list

val switch_outage :
  Openflow.Types.switch_id -> down_at:float -> up_at:float -> timed_fault list

val inter_switch_links : Netsim.Topology.t -> Netsim.Topology.link list
(** The links whose both endpoints are switches — the ones worth flapping
    (host links kill connectivity trivially). Deterministic order. *)

val periodic_link_flaps :
  Netsim.Topology.t ->
  seed:int ->
  period:float ->
  downtime:float ->
  duration:float ->
  timed_fault list
(** Every [period] seconds, flap one random inter-switch link for
    [downtime] seconds. *)

val sorted : timed_fault list -> timed_fault list
