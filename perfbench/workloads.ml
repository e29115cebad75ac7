(* The three workloads: fabric, runtime configuration, apps, warm-up and
   the seeded input schedule. Everything random is drawn from the seed. *)

open Legosdn
module Net = Netsim.Net
module Topology = Netsim.Topology
module Packet = Openflow.Packet
module App_sig = Controller.App_sig

type input =
  | Burst of (Topology.host * Packet.t) array
      (** Packets handed to the network together; a single packet is a
          burst of one. *)
  | Tick  (** Expire flow entries, then deliver a controller tick. *)
  | Fault of Net.fault

type t = {
  name : string;
  k : int;  (** Fat-tree arity. *)
  config : Runtime.config;
  apps : seed:int -> App_sig.app list;
  warm : Net.t -> Runtime.t -> unit;
  inputs : seed:int -> Topology.t -> units:int -> (float * input) array;
      (** The schedule for [units] flows (bursts, on proxy-arp-k16), with
          ticks and faults up to the last of them. *)
  units_per_wall : float;
      (** Units per wall second of measured loop on a 2-core x86-64 VM;
          sizes the schedule from [--seconds]. *)
  loop_check : bool;  (** Check the final tables for forwarding loops. *)
}

let app name =
  match Apps.Suite.find name with
  | Some a -> a
  | None -> invalid_arg ("unknown app " ^ name)

let faulty trigger effect_ name =
  Apps.Faulty.wrap ~bug:(Apps.Bug_model.make trigger effect_) (app name)

(* The first [n] flows of a seeded trace, their start times scaled so the
   last one starts at [n / rate]: a seed decides which hosts talk and how
   bursty the arrivals are, not how much load each virtual second carries.
   Without that, one long heavy-tailed gap lets the learning switch's idle
   timeouts empty the tables and makes a seed's events far cheaper. The
   generator is prefix-stable without churn, so a longer plan starts with
   the same flows. *)
let flows ~seed ~rate hosts n =
  let config =
    {
      Runtime.default_workload_config with
      Runtime.w_seed = seed;
      Runtime.w_rate = rate;
    }
  in
  let rec grow duration =
    let fs =
      (Workload.Trace_gen.plan ~config ~hosts ~duration ())
        .Workload.Trace_gen.flows
    in
    if List.length fs >= n then List.filteri (fun i _ -> i < n) fs
    else grow (2. *. duration)
  in
  match List.rev (grow (2. *. float_of_int n /. rate)) with
  | [] -> []
  | last :: _ as rev ->
      let scale = float_of_int n /. rate /. last.Workload.Traffic.start in
      List.rev_map
        (fun (f : Workload.Traffic.flow_spec) ->
          { f with start = f.start *. scale })
        rev

(* The virtual span a schedule covers: one second past its last flow. *)
let horizon_of (fs : Workload.Traffic.flow_spec list) =
  List.fold_left
    (fun acc (f : Workload.Traffic.flow_spec) -> Float.max acc f.start)
    0. fs
  |> Float.ceil |> ( +. ) 1.

let ticks ~horizon =
  List.init (int_of_float horizon) (fun i -> (float_of_int (i + 1), Tick))

(* Stable by time, so same-instant inputs keep their generation order. *)
let schedule parts =
  Array.of_list (List.stable_sort (fun (a, _) (b, _) -> compare a b) parts)

let tcp_packets i (f : Workload.Traffic.flow_spec) =
  (* Its own source port makes every flow new to the exact-match tables. *)
  let sport = 1024 + (i mod 60_000) in
  List.init f.packets (fun j ->
      ( f.start +. (float_of_int j *. f.interval),
        Burst
          [|
            ( f.src_host,
              Packet.tcp ~src_host:f.src_host ~dst_host:f.dst_host ~sport
                ~dport:f.dport () );
          |] ))

let arp_request (f : Workload.Traffic.flow_spec) =
  ( f.start,
    Burst
      [|
        ( f.src_host,
          Packet.arp_request ~src_host:f.src_host ~dst_host:f.dst_host );
      |] )

(* Gratuitous replies teach the responder every binding without the
   broadcast storm an unknown-address request starts on a looped fabric. *)
let gratuitous_warm net rt =
  Runtime.step rt;
  let gratuitous j =
    Packet.make ~dl_type:Packet.ethertype_arp ~nw_proto:2
      ~dl_src:(Openflow.Types.mac_of_host j)
      ~dl_dst:Openflow.Types.mac_broadcast
      ~nw_src:(Openflow.Types.ip_of_host j)
      ~nw_dst:(Openflow.Types.ip_of_host j) ~tp_src:0 ~tp_dst:0
      ~payload_len:28 ()
  in
  List.iter
    (fun h ->
      Net.inject net h (gratuitous h);
      Runtime.step rt)
    (Topology.hosts (Net.topology net))

(* One ARP request per host, for its neighbour: hosts and the spanning
   tree's flood paths are known before the first flow. *)
let arp_warm net rt =
  Runtime.step rt;
  let hosts = Array.of_list (Topology.hosts (Net.topology net)) in
  let n = Array.length hosts in
  Array.iteri
    (fun i h ->
      Net.inject net h
        (Packet.arp_request ~src_host:h ~dst_host:hosts.((i + 1) mod n));
      Runtime.step rt)
    hosts

let burst = 32

let proxy_arp_k16 =
  {
    name = "proxy-arp-k16";
    k = 16;
    config =
      {
        Runtime.default_config with
        Runtime.dispatch = Runtime.default_sharded;
      };
    apps = (fun ~seed:_ -> [ app "arp_responder" ]);
    warm = gratuitous_warm;
    inputs =
      (fun ~seed topo ~units ->
        (* Requests for known addresses, [burst] outstanding per step: each
           burst is due when its last flow arrives. *)
        let fl = flows ~seed ~rate:200. (Topology.hosts topo) (units * burst) in
        let fs = Array.of_list fl in
        let bursts =
          List.init units (fun b ->
              let part = Array.sub fs (b * burst) burst in
              ( part.(burst - 1).Workload.Traffic.start,
                Burst
                  (Array.map
                     (fun (f : Workload.Traffic.flow_spec) ->
                       ( f.src_host,
                         Packet.arp_request ~src_host:f.src_host
                           ~dst_host:f.dst_host ))
                     part) ))
        in
        schedule (ticks ~horizon:(horizon_of fl) @ bursts));
    units_per_wall = 140.;
    loop_check = false;
  }

let microflow_k4 =
  {
    name = "microflow-k4";
    k = 4;
    config = Runtime.default_config;
    apps =
      (fun ~seed:_ ->
        List.map app
          [
            "spanning_tree";
            "arp_responder";
            "learning_switch";
            "firewall";
            "monitor";
          ]);
    warm = arp_warm;
    inputs =
      (fun ~seed topo ~units ->
        let fs = flows ~seed ~rate:20. (Topology.hosts topo) units in
        schedule
          (ticks ~horizon:(horizon_of fs)
          @ List.concat (List.mapi tcp_packets fs)));
    units_per_wall = 150.;
    loop_check = true;
  }

let faults_k4 =
  {
    name = "faults-k4";
    k = 4;
    config =
      {
        Runtime.default_config with
        Runtime.checkpoint_mode = Runtime.Ckpt_delta_adaptive;
        Runtime.nversion =
          Some { Voter.nv_replicas = 3; nv_adaptive = true; nv_shed_after = 8 };
      };
    apps =
      (fun ~seed ->
        Apps.Bug_model.
          [
            faulty (On_kind Controller.Event.K_link_down) (Crash_partial 0.5)
              "spanning_tree";
            app "arp_responder";
            faulty (With_probability (0.05, seed)) Byzantine_loop
              "learning_switch";
            faulty (With_probability (0.05, seed + 1)) Crash "policy_router";
            app "monitor";
          ]);
    warm = arp_warm;
    inputs =
      (fun ~seed topo ~units ->
        let fs = flows ~seed ~rate:20. (Topology.hosts topo) units in
        let horizon = horizon_of fs in
        let traffic =
          List.concat
            (List.mapi
               (fun i f ->
                 if i mod 4 = 3 then [ arp_request f ] else tcp_packets i f)
               fs)
        in
        let flaps =
          Workload.Failure_schedule.periodic_link_flaps topo ~seed ~period:2.
            ~downtime:0.5 ~duration:horizon
        in
        (* One switch down for 2 s every 5 s, rotating through the fabric. *)
        let switches = Array.of_list (Topology.switches topo) in
        let n = Array.length switches in
        let outages =
          List.concat
            (List.init
               (int_of_float (horizon /. 5.))
               (fun i ->
                 let at = float_of_int (5 * (i + 1)) in
                 Workload.Failure_schedule.switch_outage
                   switches.(i mod n)
                   ~down_at:at ~up_at:(at +. 2.)))
        in
        let faults =
          List.map (fun (at, f) -> (at, Fault f)) (flaps @ outages)
        in
        schedule (ticks ~horizon @ faults @ traffic));
    units_per_wall = 32.;
    loop_check = true;
  }

let all = [ proxy_arp_k16; microflow_k4; faults_k4 ]
let find name = List.find_opt (fun w -> w.name = name) all
