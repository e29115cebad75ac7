open Openflow

let pkt = Packet.tcp ~src_host:1 ~dst_host:2 ~sport:1000 ~dport:80 ()

let test_any_matches_everything () =
  T_util.checkb "any matches" true (Ofp_match.matches Ofp_match.any ~in_port:7 pkt)

let test_exact_matches_only_itself () =
  let m = Ofp_match.exact ~in_port:3 pkt in
  T_util.checkb "matches original" true (Ofp_match.matches m ~in_port:3 pkt);
  T_util.checkb "wrong in_port" false (Ofp_match.matches m ~in_port:4 pkt);
  let other = { pkt with Packet.tp_dst = 81 } in
  T_util.checkb "wrong field" false (Ofp_match.matches m ~in_port:3 other)

let test_single_field () =
  let m = Ofp_match.make ~tp_dst:80 () in
  T_util.checkb "matches port 80" true (Ofp_match.matches m ~in_port:1 pkt);
  let p81 = { pkt with Packet.tp_dst = 81 } in
  T_util.checkb "rejects port 81" false (Ofp_match.matches m ~in_port:1 p81)

let test_vlan_semantics () =
  let untagged_only = Ofp_match.make ~dl_vlan:None () in
  T_util.checkb "explicit-untagged matches untagged" true
    (Ofp_match.matches untagged_only ~in_port:1 pkt);
  let tagged = { pkt with Packet.dl_vlan = Some 5 } in
  T_util.checkb "explicit-untagged rejects tagged" false
    (Ofp_match.matches untagged_only ~in_port:1 tagged);
  let vlan5 = Ofp_match.make ~dl_vlan:(Some 5) () in
  T_util.checkb "vlan 5 matches" true (Ofp_match.matches vlan5 ~in_port:1 tagged)

let test_subsumes () =
  let wide = Ofp_match.make ~dl_type:Packet.ethertype_ip () in
  let narrow = Ofp_match.make ~dl_type:Packet.ethertype_ip ~tp_dst:80 () in
  T_util.checkb "wide subsumes narrow" true (Ofp_match.subsumes wide narrow);
  T_util.checkb "narrow does not subsume wide" false
    (Ofp_match.subsumes narrow wide);
  T_util.checkb "any subsumes all" true (Ofp_match.subsumes Ofp_match.any narrow);
  T_util.checkb "self subsumption" true (Ofp_match.subsumes narrow narrow)

let test_overlaps () =
  let a = Ofp_match.make ~tp_dst:80 () in
  let b = Ofp_match.make ~nw_proto:6 () in
  let c = Ofp_match.make ~tp_dst:443 () in
  T_util.checkb "orthogonal fields overlap" true (Ofp_match.overlaps a b);
  T_util.checkb "conflicting values do not" false (Ofp_match.overlaps a c)

let test_wildcard_count () =
  T_util.checki "any has 11 wildcards" 11 (Ofp_match.wildcard_count Ofp_match.any);
  T_util.checki "exact has none" 0
    (Ofp_match.wildcard_count (Ofp_match.exact ~in_port:1 pkt))

let encode_decode m =
  let w = Buf.writer () in
  Ofp_match.encode w m;
  Ofp_match.decode (Buf.reader (Buf.contents w))

let test_codec_roundtrip_corners () =
  List.iter
    (fun m -> Alcotest.check T_util.match_t "roundtrip" m (encode_decode m))
    [
      Ofp_match.any;
      Ofp_match.exact ~in_port:5 pkt;
      Ofp_match.make ~dl_vlan:None ();
      Ofp_match.make ~dl_vlan:(Some 100) ();
      Ofp_match.make ~in_port:1 ~tp_dst:443 ();
    ]

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"match codec roundtrip" ~count:500 T_util.Gen.ofp_match
    (fun m -> encode_decode m = m)

let prop_subsumes_implies_matches =
  QCheck2.Test.make ~name:"subsumption is sound w.r.t. matching" ~count:500
    QCheck2.Gen.(pair T_util.Gen.ofp_match (pair T_util.Gen.packet (int_range 1 8)))
    (fun (m, (p, in_port)) ->
      (* Any packet matched by exact(p) is matched by every pattern that
         subsumes exact(p). *)
      let e = Ofp_match.exact ~in_port p in
      if Ofp_match.subsumes m e then Ofp_match.matches m ~in_port p else true)

let prop_exact_matches_self =
  QCheck2.Test.make ~name:"exact pattern matches its packet" ~count:500
    QCheck2.Gen.(pair T_util.Gen.packet (int_range 1 8))
    (fun (p, in_port) ->
      Ofp_match.matches (Ofp_match.exact ~in_port p) ~in_port p)

(* Hash-consing must be a pure representation change: the interned
   representative of a pattern is behaviorally indistinguishable from the
   fresh record it replaced, and the codec round-trip of any pattern
   re-interns to the very same shared block. *)
let prop_intern_behavioral =
  QCheck2.Test.make ~name:"interned match is behaviorally identical"
    ~count:500
    QCheck2.Gen.(
      pair T_util.Gen.ofp_match (pair T_util.Gen.packet (int_range 1 8)))
    (fun (m, (p, in_port)) ->
      let i = Ofp_match.intern m in
      Ofp_match.equal i m && Ofp_match.equal m i
      && Ofp_match.hash i = Ofp_match.hash m
      && Ofp_match.subsumes i m && Ofp_match.subsumes m i
      && Ofp_match.matches i ~in_port p = Ofp_match.matches m ~in_port p
      && encode_decode i = encode_decode m
      (* decode yields a fresh record; interning it finds [i] again *)
      && Ofp_match.intern (encode_decode m) == i)

let test_intern_sharing () =
  let fresh () = Ofp_match.make ~tp_dst:8080 ~nw_proto:6 () in
  let a = Ofp_match.intern (fresh ()) in
  let b = Ofp_match.intern (fresh ()) in
  T_util.checkb "structurally equal patterns share one block" true (a == b);
  T_util.checkb "re-interning the representative is the identity" true
    (Ofp_match.intern a == a);
  let was = Ofp_match.interning_enabled () in
  Ofp_match.set_interning false;
  let c = fresh () in
  T_util.checkb "disabled interning returns its argument" true
    (Ofp_match.intern c == c);
  Ofp_match.set_interning was

(* [matches] and [equal] compare fields at [int] (and [int option] for the
   VLAN) by hand; they must agree with the definitions by polymorphic
   compare below. Matches are drawn around the packet — each field wildcarded,
   equal to the packet's or one off — so both outcomes are frequent, and
   the VLAN takes all three states: wildcard, explicitly untagged
   ([Some None]) and tagged. *)
let poly_matches (m : Ofp_match.t) ~in_port (p : Packet.t) =
  let ok pat v = match pat with None -> true | Some x -> x = v in
  ok m.in_port in_port && ok m.dl_src p.dl_src && ok m.dl_dst p.dl_dst
  && ok m.dl_vlan p.dl_vlan && ok m.dl_type p.dl_type
  && ok m.nw_src p.nw_src && ok m.nw_dst p.nw_dst
  && ok m.nw_proto p.nw_proto && ok m.nw_tos p.nw_tos
  && ok m.tp_src p.tp_src && ok m.tp_dst p.tp_dst

let gen_near_packet =
  QCheck2.Gen.(
    let* p = T_util.Gen.packet and* in_port = int_range 1 8 in
    let near v = oneofl [ None; Some v; Some (v + 1) ] in
    let* m_in_port = near in_port
    and* dl_src = near p.dl_src
    and* dl_dst = near p.dl_dst
    and* dl_vlan = oneofl [ None; Some None; Some (Some 5); Some p.dl_vlan ]
    and* dl_type = near p.dl_type
    and* nw_src = near p.nw_src
    and* nw_dst = near p.nw_dst
    and* nw_proto = near p.nw_proto
    and* nw_tos = near p.nw_tos
    and* tp_src = near p.tp_src
    and* tp_dst = near p.tp_dst in
    let m =
      {
        Ofp_match.in_port = m_in_port;
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
    in
    (* A fresh copy (so [==] fails) with at most one field redrawn. *)
    let* field = int_bound 11 and* alt = near 7
    and* vlan_alt = oneofl [ None; Some None; Some (Some 7) ] in
    let m' =
      match field with
      | 0 -> { m with in_port = alt }
      | 1 -> { m with dl_src = alt }
      | 2 -> { m with dl_dst = alt }
      | 3 -> { m with dl_vlan = vlan_alt }
      | 4 -> { m with dl_type = alt }
      | 5 -> { m with nw_src = alt }
      | 6 -> { m with nw_dst = alt }
      | 7 -> { m with nw_proto = alt }
      | 8 -> { m with nw_tos = alt }
      | 9 -> { m with tp_src = alt }
      | 10 -> { m with tp_dst = alt }
      | _ -> { m with in_port = m.in_port }
    in
    return (m, m', p, in_port))

let prop_specialised_compares =
  QCheck2.Test.make
    ~name:"specialised equal and matches agree with polymorphic compare"
    ~count:1000 gen_near_packet (fun (m, m', p, in_port) ->
      Ofp_match.matches m ~in_port p = poly_matches m ~in_port p
      && Ofp_match.matches m' ~in_port p = poly_matches m' ~in_port p
      && Ofp_match.equal m m' = (m = m')
      && Ofp_match.equal m' m = (m' = m))

let prop_overlap_symmetric =
  QCheck2.Test.make ~name:"overlap is symmetric" ~count:300
    QCheck2.Gen.(pair T_util.Gen.ofp_match T_util.Gen.ofp_match)
    (fun (a, b) -> Ofp_match.overlaps a b = Ofp_match.overlaps b a)

let suite =
  [
    Alcotest.test_case "wildcard matches everything" `Quick test_any_matches_everything;
    Alcotest.test_case "exact match is exact" `Quick test_exact_matches_only_itself;
    Alcotest.test_case "single-field match" `Quick test_single_field;
    Alcotest.test_case "vlan three-state semantics" `Quick test_vlan_semantics;
    Alcotest.test_case "subsumption" `Quick test_subsumes;
    Alcotest.test_case "overlap" `Quick test_overlaps;
    Alcotest.test_case "wildcard count" `Quick test_wildcard_count;
    Alcotest.test_case "codec corner cases" `Quick test_codec_roundtrip_corners;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_subsumes_implies_matches;
    QCheck_alcotest.to_alcotest prop_exact_matches_self;
    QCheck_alcotest.to_alcotest prop_overlap_symmetric;
    QCheck_alcotest.to_alcotest prop_intern_behavioral;
    QCheck_alcotest.to_alcotest prop_specialised_compares;
    Alcotest.test_case "intern shares and toggles" `Quick test_intern_sharing;
  ]
