open Openflow

type t = {
  pattern : Ofp_match.t;
  priority : int;
  actions : Action.t list;
  cookie : int64;
  idle_timeout : int;
  hard_timeout : int;
  notify_when_removed : bool;
  installed_at : float;
  mutable last_used : float;
  mutable packet_count : int;
  mutable byte_count : int;
}

(* Patterns are interned at entry creation: every identical wildcard shape
   installed anywhere in the fabric shares one heap block, and downstream
   equality/subsume checks hit the pointer fast path. *)
let of_flow_mod ~now (fm : Message.flow_mod) =
  {
    pattern = Ofp_match.intern fm.pattern;
    priority = fm.priority;
    actions = fm.actions;
    cookie = fm.cookie;
    idle_timeout = fm.idle_timeout;
    hard_timeout = fm.hard_timeout;
    notify_when_removed = fm.notify_when_removed;
    installed_at = now;
    last_used = now;
    packet_count = 0;
    byte_count = 0;
  }

let make ?(cookie = 0L) ?(idle_timeout = 0) ?(hard_timeout = 0)
    ?(priority = Message.default_priority) ?(notify_when_removed = false) ~now
    pattern actions =
  {
    pattern = Ofp_match.intern pattern;
    priority;
    actions;
    cookie;
    idle_timeout;
    hard_timeout;
    notify_when_removed;
    installed_at = now;
    last_used = now;
    packet_count = 0;
    byte_count = 0;
  }

let matches e ~in_port pkt = Ofp_match.matches e.pattern ~in_port pkt

let account e ~now pkt =
  e.packet_count <- e.packet_count + 1;
  e.byte_count <- e.byte_count + Packet.size pkt;
  e.last_used <- now

let expiry_reason e ~now =
  if e.hard_timeout > 0 && now -. e.installed_at >= float e.hard_timeout then
    Some Message.Removed_hard
  else if e.idle_timeout > 0 && now -. e.last_used >= float e.idle_timeout
  then Some Message.Removed_idle
  else None

let live e ~now =
  not
    ((e.hard_timeout > 0 && now -. e.installed_at >= float e.hard_timeout)
    || (e.idle_timeout > 0 && now -. e.last_used >= float e.idle_timeout))

(* [since +. float timeout] rounds to within a float of the first instant
   [live]'s subtraction fails, on either side of it; the float below the
   earlier sum is never after the earlier of those instants. *)
let deadline e =
  let at since timeout =
    if timeout <= 0 then infinity else since +. float timeout
  in
  let hard = at e.installed_at e.hard_timeout
  and idle = at e.last_used e.idle_timeout in
  let sum = if hard <= idle then hard else idle in
  if sum = infinity then sum else Float.pred sum

let duration e ~now = int_of_float (now -. e.installed_at)

let to_flow_stat ~now e : Message.flow_stat =
  {
    fs_pattern = e.pattern;
    fs_priority = e.priority;
    fs_cookie = e.cookie;
    fs_duration = duration e ~now;
    fs_idle_timeout = e.idle_timeout;
    fs_hard_timeout = e.hard_timeout;
    fs_packet_count = e.packet_count;
    fs_byte_count = e.byte_count;
    fs_actions = e.actions;
  }

let to_flow_removed ~now reason e : Message.flow_removed =
  {
    fr_pattern = e.pattern;
    fr_cookie = e.cookie;
    fr_priority = e.priority;
    fr_reason = reason;
    fr_duration = duration e ~now;
    fr_idle_timeout = e.idle_timeout;
    fr_packet_count = e.packet_count;
    fr_byte_count = e.byte_count;
  }

let restore e ~remaining_idle ~remaining_hard ~now ~packet_count ~byte_count =
  {
    e with
    idle_timeout = remaining_idle;
    hard_timeout = remaining_hard;
    installed_at = now;
    last_used = now;
    packet_count;
    byte_count;
  }

let pp fmt e =
  Format.fprintf fmt "[prio=%d %a -> %a pkts=%d bytes=%d idle=%d hard=%d]"
    e.priority Ofp_match.pp e.pattern Action.pp_list e.actions e.packet_count
    e.byte_count e.idle_timeout e.hard_timeout
