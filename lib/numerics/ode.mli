(** Explicit ODE integration for the MEMS mechanical transient model. *)

type derivative = float -> Vec.t -> Vec.t
(** [f t y] returns dy/dt. *)

val integrate :
  derivative -> t0:float -> t1:float -> dt:float -> y0:Vec.t ->
  (float * Vec.t) array
(** Fixed-step RK4 from [t0] to [t1] (inclusive endpoint, last step may
    be shortened). Returns the full trajectory including the initial
    point. Requires [dt > 0] and [t1 >= t0]. *)

val integrate_final :
  derivative -> t0:float -> t1:float -> dt:float -> y0:Vec.t -> Vec.t
(** As {!integrate} but keeps only the final state (no trajectory
    allocation). *)
