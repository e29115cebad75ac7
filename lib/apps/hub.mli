(** The Hub: every packet handed to the controller is flooded out of every
    other port. One of the three FloodLight applications the paper's
    prototype ports into the AppVisor stub (§4.1). Installs no flows, so
    every packet visits the controller. *)

include Controller.App_sig.APP
