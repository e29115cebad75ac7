(** Statistics monitor — the cloud-provisioning/monitoring category of
    Table 2 (Stratos-like visibility).

    On every tick it polls aggregate statistics from every connected
    switch, and it keeps each switch's latest byte total. Its polls are
    the stats traffic that NetLog's counter cache answers; that a rollback
    never makes those totals regress is checked on the cache itself
    (t_netlog's "counter cache corrects flow stats" and "counter cache
    corrects aggregates"), not through this app. *)

include Controller.App_sig.APP
