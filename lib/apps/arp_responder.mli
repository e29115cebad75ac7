(** Proxy-ARP responder: answers ARP requests from the controller.

    Learns IP→MAC bindings from the source fields of every ARP packet it
    sees; known targets are answered directly with a synthesized ARP reply
    out of the ingress port (no flooding at all), unknown targets are
    flooded to be resolved the hard way. Keeps broadcast ARP traffic off
    the fabric — a classic controller-app companion to a learning switch.

    The state is the binding map and nothing else: answering or flooding
    leaves it as it was, and so does re-learning a binding it holds. *)

include Controller.App_sig.APP
