(** Traffic-engineering load balancer — the FlowScale-category application
    of Table 2.

    Spreads flows entering a switch across its inter-switch uplinks
    round-robin, installing an exact-match rule per flow. Stateful (the
    per-switch round-robin cursor and the flow→uplink assignment table),
    so crash recovery fidelity is observable. *)

include Controller.App_sig.APP
