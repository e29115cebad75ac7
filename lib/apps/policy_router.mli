(** Destination-MAC shortest-path routing as declared intent. The handler
    only records observed source MACs (and floods the trigger packet); the
    declared policy compiles to one forwarding rule per (switch, known
    destination) pair, recomputed on every reconciliation from the device
    manager and the controller's shortest-path first hops
    ({!Controller.App_sig.first_hop}). *)

include Controller.App_sig.INTENT_APP
