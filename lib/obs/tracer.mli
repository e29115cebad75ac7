(** The span recorder: a fixed-size ring buffer of completed spans plus a
    stack of open ones.

    A tracer is either {!noop} — every operation is a single branch, so an
    uninstrumented run pays (almost) nothing — or a live recorder created
    with {!create}. Completed spans go into a ring buffer (the oldest are
    dropped once it is full, counted in {!dropped}) and their wall/logical
    durations feed one {!Histogram} per {!Span.kind}.

    Timebases: [now] is the virtual simulation clock ({!Netsim.Clock} in
    the runtime). [wall] orders and times spans within one virtual
    instant; when the host does not supply one, a deterministic logical
    clock is used that advances one microsecond per tracer operation —
    strictly monotonic, so nesting is always well-defined and fuzzer
    reproducers stay byte-for-byte replayable. *)

type t

val noop : t
(** The disabled tracer: records nothing, allocates nothing. *)

val create :
  ?capacity:int -> ?wall:(unit -> float) -> now:(unit -> float) -> unit -> t
(** [capacity] (default 65536) bounds the completed-span ring. [now] is
    the virtual clock. [wall], if given, must be monotone non-decreasing
    (e.g. [Unix.gettimeofday]); omitted, the logical tick clock is used. *)

val enabled : t -> bool
(** [false] exactly for {!noop}. *)

val start : t -> ?attrs:(string * string) list -> Span.kind -> int
(** Open a span nested under the currently-open one (if any) and return
    its id. On {!noop}: returns [-1], does nothing. *)

val finish : t -> ?attrs:(string * string) list -> int -> unit
(** Close the span with this id, appending [attrs]. Any spans opened under
    it and not yet finished are closed with it — so an abandoned child
    (e.g. a rolled-back transaction unwound past its span) can never leak
    an open span. Unknown or already-closed ids are ignored. *)

val with_span :
  t -> ?attrs:(string * string) list -> Span.kind -> (unit -> 'a) -> 'a
(** [start]/[finish] around a thunk, exception-safe. *)

val instant : t -> ?attrs:(string * string) list -> Span.kind -> unit
(** Record a zero-duration span (cache hit, retransmission, ...). *)

val spans : t -> Span.t list
(** Completed spans, oldest first. [[]] on {!noop}. *)

val open_count : t -> int
(** Currently-open spans — 0 at any quiescent point. *)

val recorded : t -> int
(** Spans completed since creation (dropped ones included). *)

val dropped : t -> int
(** Completed spans evicted by ring wraparound. *)

val histogram : t -> Span.kind -> Histogram.t option
(** Wall/logical duration histogram for one kind; [None] on {!noop}. *)

val clear : t -> unit
(** Drop completed and open spans and histogram contents; ids keep
    counting from where they were. *)

val pp_summary : Format.formatter -> t -> unit
(** Per-kind table: spans recorded, p50/p95/p99 wall duration. *)
