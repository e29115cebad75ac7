module Net = Netsim.Net
module Topology = Netsim.Topology

type timed_fault = float * Net.fault

let link_flap ~a ~b ~down_at ~up_at =
  [ (down_at, Net.Link_down (a, b)); (up_at, Net.Link_up (a, b)) ]

let switch_outage sid ~down_at ~up_at =
  [ (down_at, Net.Switch_down sid); (up_at, Net.Switch_up sid) ]

let inter_switch_links topo =
  Topology.links topo
  |> List.filter (fun (l : Topology.link) ->
         match (l.a.node, l.b.node) with
         | Topology.Switch _, Topology.Switch _ -> true
         | _ -> false)

let periodic_link_flaps topo ~seed ~period ~downtime ~duration =
  let rng = Random.State.make [| seed |] in
  let candidates = Array.of_list (inter_switch_links topo) in
  if Array.length candidates = 0 then []
  else begin
    let rec go t acc =
      if t >= duration then List.rev acc
      else begin
        let l = candidates.(Random.State.int rng (Array.length candidates)) in
        let flap =
          link_flap ~a:l.Topology.a.node ~b:l.Topology.b.node ~down_at:t
            ~up_at:(t +. downtime)
        in
        go (t +. period) (List.rev_append flap acc)
      end
    in
    go period []
  end

let sorted faults = List.stable_sort (fun (a, _) (b, _) -> compare a b) faults
