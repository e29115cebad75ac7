module Net = Netsim.Net
module Clock = Netsim.Clock
module Event_queue = Netsim.Event_queue
module Monolithic = Controller.Monolithic
module Runtime = Legosdn.Runtime
module Sandbox = Legosdn.Sandbox

type driver = {
  label : string;
  step : unit -> unit;
  tick : unit -> unit;
  controller_up : unit -> bool;
  restart_controller : unit -> unit;
  app_alive : string -> bool;
  app_names : string list;
}

let monolithic_driver controller =
  {
    label = "monolithic";
    step = (fun () -> Monolithic.step controller);
    tick = (fun () -> Monolithic.tick controller);
    controller_up =
      (fun () -> Monolithic.status controller = Monolithic.Running);
    restart_controller = (fun () -> Monolithic.restart controller);
    app_alive =
      (fun name ->
        (* Fate-sharing: an app is in service iff the whole stack is. *)
        Monolithic.status controller = Monolithic.Running
        && List.exists
             (fun inst -> Controller.App_sig.name inst = name)
             (Monolithic.apps controller));
    app_names =
      List.map Controller.App_sig.name (Monolithic.apps controller);
  }

let legosdn_driver runtime =
  {
    label = "legosdn";
    step = (fun () -> Runtime.step runtime);
    tick = (fun () -> Runtime.tick runtime);
    controller_up = (fun () -> true);
    restart_controller = (fun () -> ());
    app_alive =
      (fun name ->
        match Runtime.sandbox runtime name with
        | Some box -> Sandbox.alive box
        | None -> false);
    app_names = List.map Sandbox.name (Runtime.sandboxes runtime);
  }

type t = {
  make_topology : unit -> Netsim.Topology.t;
  duration : float;
  traffic : Traffic.injection list;
  faults : Failure_schedule.timed_fault list;
  tick_interval : float option;
  sample_interval : float;
  restart_delay : float;
}

let make ?(faults = []) ?tick_interval ?(sample_interval = 0.5)
    ?(restart_delay = 10.) ~make_topology ~duration ~traffic () =
  {
    make_topology;
    duration;
    traffic;
    faults;
    tick_interval;
    sample_interval;
    restart_delay;
  }

type report = {
  label : string;
  duration : float;
  controller_downtime : float;
  controller_availability : float;
  controller_crashes : int;
  app_availability : (string * float) list;
  mean_connectivity : float;
  min_connectivity : float;
  events_delivered : int;
  packets_injected : int;
  samples : (float * float) list;
}

type action =
  | Inject of Traffic.injection
  | Fault of Net.fault
  | Do_tick
  | Sample
  | Restart

let run scenario ~make_driver =
  let clock = Clock.create () in
  let topo = scenario.make_topology () in
  let net = Net.create clock topo in
  let driver = make_driver net in
  let queue = Event_queue.create () in
  List.iter
    (fun (inj : Traffic.injection) ->
      Event_queue.push queue ~time:inj.at (Inject inj))
    scenario.traffic;
  List.iter
    (fun (at, fault) -> Event_queue.push queue ~time:at (Fault fault))
    scenario.faults;
  (match scenario.tick_interval with
  | None -> ()
  | Some interval ->
      let rec go t =
        if t < scenario.duration then begin
          Event_queue.push queue ~time:t Do_tick;
          go (t +. interval)
        end
      in
      go interval);
  let rec go t =
    if t < scenario.duration then begin
      Event_queue.push queue ~time:t Sample;
      go (t +. scenario.sample_interval)
    end
  in
  go scenario.sample_interval;
  (* Bookkeeping. *)
  let downtime = ref 0. in
  let down_since = ref None in
  let crashes = ref 0 in
  let injected = ref 0 in
  let connectivity_samples = ref [] in
  let liveness : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  let sample_liveness () =
    List.iter
      (fun name ->
        let alive, total =
          Option.value (Hashtbl.find_opt liveness name) ~default:(0, 0)
        in
        let alive = if driver.app_alive name then alive + 1 else alive in
        Hashtbl.replace liveness name (alive, total + 1))
      driver.app_names
  in
  (* Initial handshake. *)
  driver.step ();
  let handle_action = function
    | Inject inj ->
        incr injected;
        Net.inject net inj.Traffic.src inj.Traffic.packet
    | Fault fault -> Net.apply_fault net fault
    | Do_tick -> if driver.controller_up () then driver.tick ()
    | Sample ->
        connectivity_samples :=
          ( Clock.now clock,
            Invariants.Checker.connectivity (Invariants.Snapshot.of_net net) )
          :: !connectivity_samples;
        sample_liveness ()
    | Restart ->
        (* Notifications that arrived while the controller was dead were
           lost with its switch connections. *)
        ignore (Net.poll net);
        driver.restart_controller ();
        (match !down_since with
        | Some since ->
            downtime := !downtime +. (Clock.now clock -. since);
            down_since := None
        | None -> ())
  in
  let rec loop () =
    match Event_queue.pop queue with
    | None -> ()
    | Some (time, action) ->
        if time <= scenario.duration then begin
          Clock.advance_to clock (max time (Clock.now clock));
          Net.tick net;
          handle_action action;
          if driver.controller_up () then driver.step ()
          else if !down_since = None then begin
            (* Transition to dead: start the outage and summon the
               operator. *)
            down_since := Some (Clock.now clock);
            incr crashes;
            Event_queue.push queue
              ~time:(Clock.now clock +. scenario.restart_delay)
              Restart
          end;
          (* The action itself may have killed the controller (dispatch
             happens inside step). *)
          if (not (driver.controller_up ())) && !down_since = None then begin
            down_since := Some (Clock.now clock);
            incr crashes;
            Event_queue.push queue
              ~time:(Clock.now clock +. scenario.restart_delay)
              Restart
          end;
          loop ()
        end
  in
  loop ();
  Clock.advance_to clock (max scenario.duration (Clock.now clock));
  (match !down_since with
  | Some since -> downtime := !downtime +. (scenario.duration -. since)
  | None -> ());
  let samples = List.rev !connectivity_samples in
  let connectivities = List.map snd samples in
  let mean l =
    if l = [] then 0. else List.fold_left ( +. ) 0. l /. float (List.length l)
  in
  {
    label = driver.label;
    duration = scenario.duration;
    controller_downtime = !downtime;
    controller_availability = 1. -. (!downtime /. scenario.duration);
    controller_crashes = !crashes;
    app_availability =
      driver.app_names
      |> List.map (fun name ->
             let alive, total =
               Option.value (Hashtbl.find_opt liveness name) ~default:(0, 0)
             in
             (name, if total = 0 then 1. else float alive /. float total));
    mean_connectivity = mean connectivities;
    min_connectivity =
      List.fold_left min 1. connectivities;
    events_delivered = (Net.stats net).Net.delivered;
    packets_injected = !injected;
    samples;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>%s: duration=%.1fs controller-availability=%.4f (downtime=%.2fs, crashes=%d)@,\
     mean-connectivity=%.3f min=%.3f injected=%d delivered=%d@,apps: %a@]"
    r.label r.duration r.controller_availability r.controller_downtime
    r.controller_crashes r.mean_connectivity r.min_connectivity
    r.packets_injected r.events_delivered
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
       (fun f (name, a) -> Format.fprintf f "%s=%.4f" name a))
    r.app_availability
