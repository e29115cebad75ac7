(** Statistics monitor — the cloud-provisioning/monitoring category of
    Table 2 (Stratos-like visibility).

    On every tick it polls flow statistics from every connected switch and
    accumulates per-switch byte counts. This is the application that
    observes NetLog's counter-cache: after a rollback restores flows with
    zeroed hardware counters, the monitor's readings must not regress. *)

include Controller.App_sig.APP

val regressions : state -> int
(** Times a switch's byte total went backwards — should stay 0 when stats
    flow through NetLog's counter cache. *)
