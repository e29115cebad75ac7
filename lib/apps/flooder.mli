(** The Flooder: like {!Hub} but it also installs a flood rule per
    (switch, ingress port, destination), so subsequent packets of the flow
    stay out of the control loop. The second of the paper's ported
    applications (§4.1). *)

include Controller.App_sig.APP
