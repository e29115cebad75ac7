open Openflow

type context = {
  now : unit -> float;
  switches : unit -> Types.switch_id list;
  switch_ports : Types.switch_id -> Types.port_no list;
  links : unit -> Event.link list;
  first_hop : Types.switch_id -> Types.switch_id -> Types.port_no option;
  host_location : Types.mac -> (Types.switch_id * Types.port_no) option;
}

let null_context =
  {
    now = (fun () -> 0.);
    switches = (fun () -> []);
    switch_ports = (fun _ -> []);
    links = (fun () -> []);
    first_hop = (fun _ _ -> None);
    host_location = (fun _ -> None);
  }

let now (c : context) = c.now ()
let switches (c : context) = c.switches ()
let switch_ports (c : context) sw = c.switch_ports sw
let links (c : context) = c.links ()
let first_hop (c : context) src dst = c.first_hop src dst
let host_location (c : context) mac = c.host_location mac

module type APP = sig
  type state

  val name : string
  val subscriptions : Event.kind list
  val init : unit -> state
  val handle : context -> state -> Event.t -> state * Command.t list
end

module type INTENT_APP = sig
  include APP

  val policy : context -> state -> Policy.t option
end

module Of_legacy (A : APP) : INTENT_APP with type state = A.state = struct
  include A

  let policy _ _ = None
end

type app = (module INTENT_APP)

let app (module A : APP) : app =
  let module L = Of_legacy (A) in
  (module L : INTENT_APP)

let intent (module A : INTENT_APP) : app = (module A)

let to_legacy ((module A) : app) : (module APP) = (module A : APP)

exception Crash_with_partial of Command.t list
exception App_hang

type instance =
  | Instance : (module INTENT_APP with type state = 's) * 's -> instance

let instantiate (module A : INTENT_APP) =
  Instance ((module A : INTENT_APP with type state = A.state), A.init ())

let name (Instance ((module A), _)) = A.name
let subscriptions (Instance ((module A), _)) = A.subscriptions
let subscribes_to inst kind = List.mem kind (subscriptions inst)

let handle (Instance ((module A), st) as inst) ctx event =
  let st', commands = A.handle ctx st event in
  ((if st' == st then inst else Instance ((module A), st')), commands)

let policy_of (Instance ((module A), st)) ctx = A.policy ctx st

let reboot (Instance ((module A), _)) = Instance ((module A), A.init ())

let snapshot (Instance ((module A), st)) = Marshal.to_bytes st []

let restore (Instance ((module A), _)) bytes =
  (* The state type is fixed by the module; a snapshot taken from the same
     module unmarshals to exactly that type. *)
  Instance ((module A), (Marshal.from_bytes bytes 0 : A.state))
