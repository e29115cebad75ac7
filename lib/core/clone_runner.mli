(** Clone-based tolerance of non-deterministic bugs (§5).

    LegoSDN feeds both an application and a clone of it the same event
    stream, processes only the primary's responses, and switches over to
    the clone when the primary fails. Because the bug is assumed
    non-deterministic, the clone — despite having seen the same events —
    is unlikely to be in the crashing execution.

    Implemented as an APP combinator so it composes with everything else;
    only when primary {e and} clone fail on the same event does the failure
    escape to Crash-Pad. *)

open Controller

module Make (A : App_sig.APP) : App_sig.APP
