(** Shortest-path routing — the RouteFlow-category application of Table 2.

    On a packet-in it locates the destination host through the controller's
    device manager, computes a shortest switch path over the live links
    (BFS) and installs a rule on {e every} switch along the path in one go —
    the multi-switch policy whose atomicity NetLog transactions exist to
    protect. On topology changes it tears its routes down and lets traffic
    re-trigger installation. *)

include Controller.App_sig.APP

val variant : ?prefer_high_ports:bool -> string -> (module Controller.App_sig.APP)
(** An independently-built "team" version for the diversity experiment
    (§3.4): same specification, different tie-breaking in path selection.
    [prefer_high_ports] reverses neighbor exploration order. *)
