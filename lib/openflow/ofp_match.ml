type t = {
  in_port : Types.port_no option;
  dl_src : Types.mac option;
  dl_dst : Types.mac option;
  dl_vlan : int option option;
  dl_type : int option;
  nw_src : Types.ip option;
  nw_dst : Types.ip option;
  nw_proto : int option;
  nw_tos : int option;
  tp_src : int option;
  tp_dst : int option;
}

let any =
  {
    in_port = None;
    dl_src = None;
    dl_dst = None;
    dl_vlan = None;
    dl_type = None;
    nw_src = None;
    nw_dst = None;
    nw_proto = None;
    nw_tos = None;
    tp_src = None;
    tp_dst = None;
  }

let make ?in_port ?dl_src ?dl_dst ?dl_vlan ?dl_type ?nw_src ?nw_dst ?nw_proto
    ?nw_tos ?tp_src ?tp_dst () =
  {
    in_port;
    dl_src;
    dl_dst;
    dl_vlan;
    dl_type;
    nw_src;
    nw_dst;
    nw_proto;
    nw_tos;
    tp_src;
    tp_dst;
  }

let exact ~in_port (p : Packet.t) =
  {
    in_port = Some in_port;
    dl_src = Some p.dl_src;
    dl_dst = Some p.dl_dst;
    dl_vlan = Some p.dl_vlan;
    dl_type = Some p.dl_type;
    nw_src = Some p.nw_src;
    nw_dst = Some p.nw_dst;
    nw_proto = Some p.nw_proto;
    nw_tos = Some p.nw_tos;
    tp_src = Some p.tp_src;
    tp_dst = Some p.tp_dst;
  }

(* FNV-1a over the fields, same constants as [Checkpoint]'s chunk digest.
   Every field is an int under the type aliases, so folding (presence tag,
   value) pairs is a canonical serialization: two structurally-equal matches
   always fold the same stream. The steps are inlined so the running hash
   stays an unboxed [Int64] and a hash allocates only its result: the exact
   index hashes a packet's header on every table lookup. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L
let[@inline] mix h v = Int64.mul (Int64.logxor h (Int64.of_int v)) fnv_prime
let[@inline] field h = function None -> mix h 0 | Some v -> mix (mix h 1) v

let hash64 m =
  let h = field fnv_offset m.in_port in
  let h = field h m.dl_src in
  let h = field h m.dl_dst in
  let h =
    match m.dl_vlan with
    | None -> mix h 0
    | Some None -> mix (mix h 1) (-1)
    | Some (Some vid) -> mix (mix h 2) vid
  in
  let h = field h m.dl_type in
  let h = field h m.nw_src in
  let h = field h m.nw_dst in
  let h = field h m.nw_proto in
  let h = field h m.nw_tos in
  let h = field h m.tp_src in
  field h m.tp_dst

let hash m = Int64.to_int (hash64 m) land max_int

(* Every field is an [int] (or [int option] for the VLAN), so the compares
   below are specialised by hand: the polymorphic [=] on an option would go
   through [caml_equal] on every field of every rule a lookup scans. *)
let field_ok (pattern : int option) (value : int) =
  match pattern with None -> true | Some v -> v = value

let vlan_ok (pattern : int option option) (value : int option) =
  match (pattern, value) with
  | None, _ -> true
  | Some None, None -> true
  | Some (Some v), Some v' -> v = v'
  | Some _, _ -> false

let matches m ~in_port (p : Packet.t) =
  field_ok m.in_port in_port
  && field_ok m.dl_src p.dl_src
  && field_ok m.dl_dst p.dl_dst
  && vlan_ok m.dl_vlan p.dl_vlan
  && field_ok m.dl_type p.dl_type
  && field_ok m.nw_src p.nw_src
  && field_ok m.nw_dst p.nw_dst
  && field_ok m.nw_proto p.nw_proto
  && field_ok m.nw_tos p.nw_tos
  && field_ok m.tp_src p.tp_src
  && field_ok m.tp_dst p.tp_dst

(* [wider pat sub]: pattern field [pat] covers everything [sub] covers. *)
let wider pat sub =
  match (pat, sub) with
  | None, _ -> true
  | Some _, None -> false
  | Some a, Some b -> a = b

let subsumes pat m =
  pat == m
  || wider pat.in_port m.in_port
  && wider pat.dl_src m.dl_src
  && wider pat.dl_dst m.dl_dst
  && wider pat.dl_vlan m.dl_vlan
  && wider pat.dl_type m.dl_type
  && wider pat.nw_src m.nw_src
  && wider pat.nw_dst m.nw_dst
  && wider pat.nw_proto m.nw_proto
  && wider pat.nw_tos m.nw_tos
  && wider pat.tp_src m.tp_src
  && wider pat.tp_dst m.tp_dst

let compatible a b =
  match (a, b) with Some x, Some y -> x = y | _ -> true

let overlaps a b =
  compatible a.in_port b.in_port
  && compatible a.dl_src b.dl_src
  && compatible a.dl_dst b.dl_dst
  && compatible a.dl_vlan b.dl_vlan
  && compatible a.dl_type b.dl_type
  && compatible a.nw_src b.nw_src
  && compatible a.nw_dst b.nw_dst
  && compatible a.nw_proto b.nw_proto
  && compatible a.nw_tos b.nw_tos
  && compatible a.tp_src b.tp_src
  && compatible a.tp_dst b.tp_dst

let wildcard_count m =
  let w = function None -> 1 | Some _ -> 0 in
  w m.in_port + w m.dl_src + w m.dl_dst + w m.dl_vlan + w m.dl_type
  + w m.nw_src + w m.nw_dst + w m.nw_proto + w m.nw_tos + w m.tp_src
  + w m.tp_dst

let field_eq (a : int option) (b : int option) =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x = y
  | _ -> false

let vlan_eq (a : int option option) (b : int option option) =
  match (a, b) with
  | None, None | Some None, Some None -> true
  | Some (Some x), Some (Some y) -> x = y
  | _ -> false

(* Interned patterns make the pointer-equality fast path hit on the hot
   subsume/lookup loops; the field-wise fallback keeps un-interned values
   (codec output, probe keys) fully interoperable. *)
let equal a b =
  a == b
  || field_eq a.in_port b.in_port
     && field_eq a.dl_src b.dl_src
     && field_eq a.dl_dst b.dl_dst
     && vlan_eq a.dl_vlan b.dl_vlan
     && field_eq a.dl_type b.dl_type
     && field_eq a.nw_src b.nw_src
     && field_eq a.nw_dst b.nw_dst
     && field_eq a.nw_proto b.nw_proto
     && field_eq a.nw_tos b.nw_tos
     && field_eq a.tp_src b.tp_src
     && field_eq a.tp_dst b.tp_dst

let compare = Stdlib.compare

let pp fmt m =
  let any_field = ref true in
  let field name pp_v = function
    | None -> ()
    | Some v ->
        if not !any_field then Format.pp_print_string fmt ",";
        any_field := false;
        Format.fprintf fmt "%s=%a" name pp_v v
  in
  let pp_int f v = Format.pp_print_int f v in
  let pp_vlan f = function
    | None -> Format.pp_print_string f "untagged"
    | Some vid -> Format.pp_print_int f vid
  in
  Format.pp_print_string fmt "{";
  field "in_port" Types.pp_port m.in_port;
  field "dl_src" Types.pp_mac m.dl_src;
  field "dl_dst" Types.pp_mac m.dl_dst;
  field "dl_vlan" pp_vlan m.dl_vlan;
  field "dl_type" (fun f v -> Format.fprintf f "0x%04x" v) m.dl_type;
  field "nw_src" Types.pp_ip m.nw_src;
  field "nw_dst" Types.pp_ip m.nw_dst;
  field "nw_proto" pp_int m.nw_proto;
  field "nw_tos" pp_int m.nw_tos;
  field "tp_src" pp_int m.tp_src;
  field "tp_dst" pp_int m.tp_dst;
  if !any_field then Format.pp_print_string fmt "*";
  Format.pp_print_string fmt "}"

(* Wire layout: a wildcard bitmap followed by all field values (zero when
   wildcarded), mirroring the fixed-size OF 1.0 ofp_match struct. Bit i set
   in the bitmap means field i is WILDCARDED, as in the spec. *)

let bit_in_port = 1 lsl 0
let bit_dl_src = 1 lsl 1
let bit_dl_dst = 1 lsl 2
let bit_dl_vlan = 1 lsl 3
let bit_dl_type = 1 lsl 4
let bit_nw_src = 1 lsl 5
let bit_nw_dst = 1 lsl 6
let bit_nw_proto = 1 lsl 7
let bit_nw_tos = 1 lsl 8
let bit_tp_src = 1 lsl 9
let bit_tp_dst = 1 lsl 10

(* dl_vlan encodes [Some None] (explicitly untagged) as 0xffff, like the
   OFP_VLAN_NONE sentinel. *)
let vlan_none_sentinel = 0xffff

let encode w m =
  let wild = ref 0 in
  let mark bit = function None -> wild := !wild lor bit | Some _ -> () in
  mark bit_in_port m.in_port;
  mark bit_dl_src m.dl_src;
  mark bit_dl_dst m.dl_dst;
  mark bit_dl_vlan m.dl_vlan;
  mark bit_dl_type m.dl_type;
  mark bit_nw_src m.nw_src;
  mark bit_nw_dst m.nw_dst;
  mark bit_nw_proto m.nw_proto;
  mark bit_nw_tos m.nw_tos;
  mark bit_tp_src m.tp_src;
  mark bit_tp_dst m.tp_dst;
  Buf.u32 w !wild;
  Buf.u16 w (Option.value m.in_port ~default:0);
  Buf.u48 w (Option.value m.dl_src ~default:0);
  Buf.u48 w (Option.value m.dl_dst ~default:0);
  (let vlan =
     match m.dl_vlan with
     | None | Some None -> vlan_none_sentinel
     | Some (Some vid) -> vid
   in
   Buf.u16 w vlan);
  Buf.u16 w (Option.value m.dl_type ~default:0);
  Buf.u32 w (Option.value m.nw_src ~default:0);
  Buf.u32 w (Option.value m.nw_dst ~default:0);
  Buf.u8 w (Option.value m.nw_proto ~default:0);
  Buf.u8 w (Option.value m.nw_tos ~default:0);
  Buf.u16 w (Option.value m.tp_src ~default:0);
  Buf.u16 w (Option.value m.tp_dst ~default:0)

let decode r =
  let wild = Buf.read_u32 r in
  let keep bit v = if wild land bit <> 0 then None else Some v in
  let in_port = keep bit_in_port (Buf.read_u16 r) in
  let dl_src = keep bit_dl_src (Buf.read_u48 r) in
  let dl_dst = keep bit_dl_dst (Buf.read_u48 r) in
  let raw_vlan = Buf.read_u16 r in
  let dl_vlan =
    if wild land bit_dl_vlan <> 0 then None
    else if raw_vlan = vlan_none_sentinel then Some None
    else Some (Some raw_vlan)
  in
  let dl_type = keep bit_dl_type (Buf.read_u16 r) in
  let nw_src = keep bit_nw_src (Buf.read_u32 r) in
  let nw_dst = keep bit_nw_dst (Buf.read_u32 r) in
  let nw_proto = keep bit_nw_proto (Buf.read_u8 r) in
  let nw_tos = keep bit_nw_tos (Buf.read_u8 r) in
  let tp_src = keep bit_tp_src (Buf.read_u16 r) in
  let tp_dst = keep bit_tp_dst (Buf.read_u16 r) in
  {
    in_port;
    dl_src;
    dl_dst;
    dl_vlan;
    dl_type;
    nw_src;
    nw_dst;
    nw_proto;
    nw_tos;
    tp_src;
    tp_dst;
  }

(* --- Hash-consing -------------------------------------------------------

   A fabric of ~1k switches stores the same handful of wildcard patterns in
   every flow table; interning collapses those copies to one block each.
   The pool is a hashed weak set so patterns dropped from every table are
   reclaimed by the GC — live-heap measurements stay honest. Interning can
   be switched off to build non-interned baselines for benches and
   differential tests. *)

module Pool = Weak.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let pool = Pool.create 4096
let interning = ref true

let set_interning on = interning := on
let interning_enabled () = !interning

let intern m =
  if not !interning then m
  else
    match Pool.find_opt pool m with
    | Some shared -> shared
    | None ->
        Pool.add pool m;
        m
