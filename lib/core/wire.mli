(** Serialization of controller events and application commands for the
    AppVisor RPC channel.

    In the paper's prototype the proxy and stub exchange UDP datagrams; here
    every event and command that crosses an isolation boundary is encoded to
    bytes and decoded on the far side through these functions, so the
    serialization cost the paper accepts in §3.1 is actually paid (and
    measurable). Message-shaped payloads reuse the OpenFlow wire codec. *)

exception Decode_error of string

val encode_event : Controller.Event.t -> bytes
val decode_event : bytes -> Controller.Event.t

val encode_command : Controller.Command.t -> bytes
val decode_command : bytes -> Controller.Command.t

val encode_commands : Controller.Command.t list -> bytes
val decode_commands : bytes -> Controller.Command.t list

val event_size : Controller.Event.t -> int

val roundtrip_event : Controller.Event.t -> Controller.Event.t
(** [decode_event (encode_event e)] — one hop across the boundary. *)

val roundtrip_commands : Controller.Command.t list -> Controller.Command.t list

(** {1 Reusable-buffer path}

    The functions above allocate a fresh writer and copy out its frame
    per call. A {!scratch} carries one writer that is rewound (never
    reallocated, once grown) between ships, and decodes through a
    zero-copy window over the same backing store. Every sandbox's RPC
    channel owns one. Both paths run the same encoder and the same
    decoder, so the bytes and the [Decode_error]s are the same; the
    properties in [test/t_wire.ml] check that a reused, dirty scratch
    writes the bytes a fresh writer writes. *)

type scratch

val scratch : ?capacity:int -> unit -> scratch
(** A fresh scratch buffer (default initial capacity 512 bytes). Not
    shareable across concurrent ships — one per RPC channel. *)

val roundtrip_event_scratch :
  scratch -> Controller.Event.t -> Controller.Event.t * int
(** One hop across the boundary through the scratch buffer; also returns
    the encoded size (the bytes that crossed). *)

val roundtrip_commands_scratch :
  scratch -> Controller.Command.t list -> Controller.Command.t list * int

val scratch_contents : scratch -> bytes
(** Copy of the bytes most recently encoded into the scratch — for
    equality tests against a fresh writer. *)
