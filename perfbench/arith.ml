let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  let rank = max 1 rank in
  if n - rank < 10 then None else Some sorted.(rank - 1)

let median values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Arith.median: empty";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type span = { layer : string; t0 : float; t1 : float; id : int; parent : int }

let self_times spans =
  let spans = Array.of_list spans in
  let n = Array.length spans in
  (* Longer spans first among equal starts, so an enclosing span is
     always visited before the spans it contains. *)
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun i j ->
      let a = spans.(i) and b = spans.(j) in
      match compare a.t0 b.t0 with 0 -> compare b.t1 a.t1 | c -> c)
    order;
  let by_id = Hashtbl.create n in
  Array.iteri (fun i s -> if s.id >= 0 then Hashtbl.replace by_id s.id i) spans;
  let parent = Array.make n (-1) in
  let stack = ref [] in
  Array.iter
    (fun i ->
      let s = spans.(i) in
      let rec unwind () =
        match !stack with
        | top :: rest
          when not (spans.(top).t0 <= s.t0 && s.t1 <= spans.(top).t1) ->
            stack := rest;
            unwind ()
        | _ -> ()
      in
      unwind ();
      parent.(i) <-
        (match Hashtbl.find_opt by_id s.parent with
        | Some p when s.id >= 0 -> p
        | _ -> ( match !stack with top :: _ -> top | [] -> -1));
      stack := i :: !stack)
    order;
  let children = Array.make n [] in
  Array.iteri
    (fun i p -> if p >= 0 then children.(p) <- i :: children.(p))
    parent;
  let covered i =
    let s = spans.(i) in
    let intervals =
      List.map
        (fun c -> (Float.max s.t0 spans.(c).t0, Float.min s.t1 spans.(c).t1))
        children.(i)
      |> List.sort compare
    in
    let total, _ =
      List.fold_left
        (fun (total, reach) (a, b) ->
          let a = Float.max a reach in
          if b > a then (total +. (b -. a), b) else (total, reach))
        (0., neg_infinity) intervals
    in
    total
  in
  let totals = Hashtbl.create 16 and seen = ref [] in
  Array.iteri
    (fun i s ->
      let self = Float.max 0. (s.t1 -. s.t0 -. covered i) in
      match Hashtbl.find_opt totals s.layer with
      | Some v -> Hashtbl.replace totals s.layer (v +. self)
      | None ->
          seen := s.layer :: !seen;
          Hashtbl.replace totals s.layer self)
    spans;
  List.rev_map (fun l -> (l, Hashtbl.find totals l)) !seen

let failed_packets ~packets ~delivered = max 0 (packets - delivered)
