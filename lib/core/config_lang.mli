(** The operator configuration language: one text file describing a whole
    LegoSDN runtime configuration.

    This grows the paper's per-app compromise policy language (§3.3: the
    [app] and [default] lines) into the full set of operator-tunable knobs
    the paper discusses: the checkpoint cadence (§5), the quarantine
    threshold for multi-transaction failures (§5), detection timing,
    per-app resource limits (§3.4) and the set of "No-Compromise" network
    invariants (§5). A file of policy lines alone is a valid
    configuration: {!Runtime.default_config} with that policy.

    Grammar — one directive per line, [#] starts a comment; every directive
    is optional and defaults to {!Runtime.default_config}:

    {v
    checkpoint every 5
    checkpoint mode delta                # or: full | delta-adaptive
    dispatch batched batch 64            # or: dispatch seq | dispatch batched
    reliable on timeout 0.05 retries 8   # or bare: reliable on | reliable off
    replicas 3                           # odd controller-cluster size
    election timeout 0.15 0.3
    trace-cache budget 1048576           # bytes; or: trace-cache unbounded
    workload trace seed 7 rate 40 alpha 1.5 diurnal 0.5 period 60 churn 0.1
                                         # or bare: workload trace (defaults)
    nversion 3                           # N-version voting panels; or:
    nversion 3 adaptive shed-after 8     # MORPH shed/grow; or: nversion off
    quarantine threshold 2               # absent = quarantine off
    heartbeat interval 0.1 misses 3
    rpc timeout 0.05
    limit state-bytes 100000
    limit commands-per-event 64
    invariant loop-freedom               # first 'invariant' line resets the
    invariant black-hole-freedom         # default set; list what you want
    invariant no-drop-all
    invariant reachability 1:2,3:4       # src:dst pairs
    invariant isolation 1,2|3,4          # group A | group B
    invariant waypoint via 2 pairs 1:3,4:3
    app firewall event * => no-compromise
                                         # app <name|*> event <kind|*> => C
    default => equivalence               # at most one, anywhere
    v}

    Policy rules apply first-match-wins in file order; the compromise is
    one of [no-compromise], [absolute] or [equivalence]. *)

type error = { line : int; message : string }

val parse : string -> (Runtime.config, error) result

val parse_exn : string -> Runtime.config
(** Raises [Failure] with a located message. *)

val print : Runtime.config -> string
(** Render a configuration back to the language. [parse (print c)] yields a
    configuration equivalent to [c] (the quarantine store itself is fresh:
    only its threshold survives the round-trip). *)

val pp_error : Format.formatter -> error -> unit
