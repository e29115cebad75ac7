type switch_id = int
type port_no = int
type mac = int
type ip = int
type xid = int
type queue_id = int

let port_in_port = 0xfff8
let port_flood = 0xfffb
let port_all = 0xfffc
let port_controller = 0xfffd
let port_local = 0xfffe
let port_none = 0xffff

let mac_of_octets a b c d e f =
  let byte v = v land 0xff in
  (byte a lsl 40) lor (byte b lsl 32) lor (byte c lsl 24)
  lor (byte d lsl 16) lor (byte e lsl 8) lor byte f

let mac_broadcast = mac_of_octets 0xff 0xff 0xff 0xff 0xff 0xff
let mac_is_broadcast m = m = mac_broadcast

let mac_of_host i =
  mac_of_octets 0x02 0x00 0x00 ((i lsr 16) land 0xff) ((i lsr 8) land 0xff)
    (i land 0xff)

let ip_of_octets a b c d =
  let byte v = v land 0xff in
  (byte a lsl 24) lor (byte b lsl 16) lor (byte c lsl 8) lor byte d

let ip_of_host i = ip_of_octets 10 0 ((i lsr 8) land 0xff) (i land 0xff)

let pp_switch fmt s = Format.fprintf fmt "s%d" s

let pp_port fmt p =
  if p = port_in_port then Format.pp_print_string fmt "IN_PORT"
  else if p = port_flood then Format.pp_print_string fmt "FLOOD"
  else if p = port_all then Format.pp_print_string fmt "ALL"
  else if p = port_controller then Format.pp_print_string fmt "CONTROLLER"
  else if p = port_local then Format.pp_print_string fmt "LOCAL"
  else if p = port_none then Format.pp_print_string fmt "NONE"
  else Format.fprintf fmt "p%d" p

let pp_mac fmt m =
  Format.fprintf fmt "%02x:%02x:%02x:%02x:%02x:%02x"
    ((m lsr 40) land 0xff) ((m lsr 32) land 0xff) ((m lsr 24) land 0xff)
    ((m lsr 16) land 0xff) ((m lsr 8) land 0xff) (m land 0xff)

let pp_ip fmt ip =
  Format.fprintf fmt "%d.%d.%d.%d"
    ((ip lsr 24) land 0xff) ((ip lsr 16) land 0xff) ((ip lsr 8) land 0xff)
    (ip land 0xff)

let mac_to_string m = Format.asprintf "%a" pp_mac m
let ip_to_string ip = Format.asprintf "%a" pp_ip ip
