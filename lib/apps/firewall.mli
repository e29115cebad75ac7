(** Security enforcement — the BigTap/security category of Table 2.

    A static ACL: destination transport ports on the block list get a
    high-priority drop rule pushed to every switch as it connects, and any
    blocked packet that still reaches the controller gets an exact-match
    drop rule. Drop rules are intentional (the invariant checker treats
    explicit drops as policy, not black holes). *)

include Controller.App_sig.APP

val blocked_ports : int list
(** The default block list: telnet (23) and SMB (445). *)
