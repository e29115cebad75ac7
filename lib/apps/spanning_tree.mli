(** A spanning-tree application: prunes flooding on redundant links.

    Computes a BFS tree over the live inter-switch links (rooted at the
    lowest switch id, the "root bridge") and sets OFPPC_NO_FLOOD on every
    inter-switch port that is not on the tree. FLOOD outputs then reach
    every host exactly once even on cyclic topologies — the broadcast
    storms that flooding apps (hub, flooder, learning switch) otherwise
    cause on rings become impossible. Recomputes on every topology change
    and emits only the port-mod deltas; a change that leaves the pruned
    set as it was emits nothing and hands back the state it was given. *)

include Controller.App_sig.APP
