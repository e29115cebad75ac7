open Controller

module Make (A : App_sig.APP) = struct
  type state = { primary : A.state; clone : A.state }

  let name = A.name ^ "+clone"
  let subscriptions = A.subscriptions

  let init () = { primary = A.init (); clone = A.init () }

  let handle ctx st ev =
    match A.handle ctx st.primary ev with
    | primary', commands ->
        (* Primary healthy: feed the clone too, but only the primary's
           output is used. A clone crash is silently absorbed by re-seeding
           it from the primary. *)
        let clone' =
          match A.handle ctx st.clone ev with
          | clone', _ignored_commands -> clone'
          | exception _ -> primary'
        in
        ({ primary = primary'; clone = clone' }, commands)
    | exception _primary_failure -> (
        (* Switch over: the clone becomes primary and handles the event. If
           it fails too, the bug is not non-deterministic after all — let
           Crash-Pad have it. *)
        match A.handle ctx st.clone ev with
        | clone', commands ->
            ( { primary = clone'; clone = clone' },
              commands @ [ Command.Log (name ^ ": switched over to clone") ] ))
end
