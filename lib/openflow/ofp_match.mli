(** OpenFlow 1.0 flow match structure (ofp_match).

    Each field is either a wildcard ([None]) or an exact value ([Some v]).
    This is the OF 1.0 subset without CIDR-prefix IP masks: exact-or-wild per
    field, which is what the LegoSDN applications and experiments need. *)

type t = {
  in_port : Types.port_no option;
  dl_src : Types.mac option;
  dl_dst : Types.mac option;
  dl_vlan : int option option;  (** [Some None] matches untagged explicitly. *)
  dl_type : int option;
  nw_src : Types.ip option;
  nw_dst : Types.ip option;
  nw_proto : int option;
  nw_tos : int option;
  tp_src : int option;
  tp_dst : int option;
}

val any : t
(** The all-wildcard match. *)

val make :
  ?in_port:Types.port_no ->
  ?dl_src:Types.mac ->
  ?dl_dst:Types.mac ->
  ?dl_vlan:int option ->
  ?dl_type:int ->
  ?nw_src:Types.ip ->
  ?nw_dst:Types.ip ->
  ?nw_proto:int ->
  ?nw_tos:int ->
  ?tp_src:int ->
  ?tp_dst:int ->
  unit ->
  t
(** A match with the given exact fields; everything omitted is wildcarded. *)

val exact : in_port:Types.port_no -> Packet.t -> t
(** The fully-specified match extracted from a packet, as a learning switch
    would install it. *)

val matches : t -> in_port:Types.port_no -> Packet.t -> bool
(** Does the packet arriving on [in_port] satisfy this match? *)

val subsumes : t -> t -> bool
(** [subsumes pat m] is true when every packet matched by [m] is also
    matched by [pat] — the OF 1.0 non-strict delete/modify semantics:
    [pat] must be equal or strictly wilder on every field. *)

val overlaps : t -> t -> bool
(** Two matches overlap when some packet could satisfy both (fields conflict
    nowhere). Used for overlap checking on flow insertion. *)

val wildcard_count : t -> int
(** Number of wildcarded fields; 0 means fully exact. *)

val equal : t -> t -> bool
(** Structural equality with a pointer-equality fast path, so interned
    patterns compare in O(1). *)

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val hash : t -> int
(** FNV-1a 64-bit hash over the fields (same constants as the checkpoint
    chunk digest), folded to a non-negative OCaml int. Structurally equal
    matches hash identically; used to key the intern pool and
    {!Flow_table}'s exact-match index. *)

val encode : Buf.writer -> t -> unit
val decode : Buf.reader -> t

(** {1 Hash-consing}

    Identical match patterns recur across every flow table in a fabric
    (one learning-switch rule shape × thousands of switches). [intern]
    maps a pattern to a single canonical block held in a hashed weak set:
    tables that intern on insert store each distinct pattern once
    fabric-wide, and {!equal}/{!subsumes} short-circuit on pointer
    equality. The pool is weak — patterns no longer referenced by any
    table are reclaimed by the GC. *)

val intern : t -> t
(** The canonical shared copy of this pattern (inserting it if new).
    Behaviorally the identity function: the result is structurally equal
    to the argument. When interning is disabled, returns the argument
    unchanged. *)

val set_interning : bool -> unit
(** Toggle interning globally (default [true]). Disabling makes [intern]
    the identity — used to build non-interned baselines for memory benches
    and differential tests. Already-interned values stay shared. *)

val interning_enabled : unit -> bool
