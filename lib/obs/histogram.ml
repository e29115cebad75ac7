type t = {
  min_bound : float;
  factor : float;
  mutable counts : int array;  (* grown on demand *)
  mutable total : int;
  mutable max_v : float;
}

let create ?(min_bound = 1e-9) ?(factor = 2.) () =
  if min_bound <= 0. then invalid_arg "Histogram.create: min_bound <= 0";
  if factor <= 1. then invalid_arg "Histogram.create: factor <= 1";
  {
    min_bound;
    factor;
    counts = Array.make 8 0;
    total = 0;
    max_v = nan;
  }

(* The bucket index is found by repeated multiplication — the same
   operation [bound_of] uses — so a sample equal to a bucket's upper bound
   always lands in that bucket, float rounding included. *)
let index_of t x =
  if x <= t.min_bound then 0
  else begin
    let i = ref 0 and b = ref t.min_bound in
    while x > !b do
      incr i;
      b := !b *. t.factor
    done;
    !i
  end

let bound_of t i =
  let b = ref t.min_bound in
  for _ = 1 to i do
    b := !b *. t.factor
  done;
  !b

let ensure t i =
  if i >= Array.length t.counts then begin
    let counts = Array.make (max (i + 1) (2 * Array.length t.counts)) 0 in
    Array.blit t.counts 0 counts 0 (Array.length t.counts);
    t.counts <- counts
  end

let observe t x =
  let i = index_of t x in
  ensure t i;
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  if Float.is_nan t.max_v || x > t.max_v then t.max_v <- x

let count t = t.total

let quantile t q =
  if t.total = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float t.total))) in
    let rank = min rank t.total in
    let acc = ref 0 and i = ref 0 in
    while !acc < rank do
      acc := !acc + t.counts.(!i);
      if !acc < rank then incr i
    done;
    bound_of t !i
  end

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.max_v <- nan

let pp fmt t =
  if t.total = 0 then Format.fprintf fmt "empty"
  else
    Format.fprintf fmt "n=%d p50<=%.3g p95<=%.3g p99<=%.3g max=%.3g" t.total
      (quantile t 0.5) (quantile t 0.95) (quantile t 0.99) t.max_v
