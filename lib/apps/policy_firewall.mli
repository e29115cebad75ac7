(** The firewall restated as declared intent: [handle] is a no-op and the
    whole behavior is the compiled {!Policy.t} — TCP to the blocked ports
    is dropped, everything else floods. The reference case for
    policy-derived Equivalence compromises. *)

include Controller.App_sig.INTENT_APP

val intent : Policy.t
(** The declared policy itself, for tests and benchmarks. *)
