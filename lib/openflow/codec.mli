(** Binary wire codec for {!Message.t}.

    Frames follow the OpenFlow 1.0 framing discipline: an 8-byte header
    (version 0x01, message type, total length, xid) followed by the body.
    Every message that crosses a process boundary in the LegoSDN stack — the
    switch channel and the AppVisor proxy↔stub RPC — goes through this
    codec, so encode/decode cost is the real serialization overhead the
    paper's isolation layer pays. *)

exception Decode_error of string

val encode : Message.t -> bytes
(** Serialize a message to a wire frame. *)

val encode_into : Buf.writer -> Message.t -> unit
(** Append the frame to an existing writer instead of allocating a fresh
    buffer — the reusable-scratch path of the AppVisor RPC codec. The
    frame bytes are identical to {!encode}'s regardless of what precedes
    them in the writer (the header length field is frame-relative). *)

val decode : bytes -> Message.t
(** Parse one frame. Raises {!Decode_error} on malformed input. *)

val decode_at : Buf.reader -> Message.t
(** Parse one frame from a stream position (for framed streams carrying
    several messages back to back). *)
