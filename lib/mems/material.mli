(** Material and environment properties for the polysilicon surface-
    micromachined accelerometer. Temperatures are in °C throughout the
    MEMS library (matching the paper's -40/14.85/80 test points). *)

val room_temperature : float
(** 14.85 °C (= 288.0 K), the paper's room-temperature test point. *)

val youngs_modulus : float -> float
(** [youngs_modulus temp] in Pa; linear temperature coefficient around
    room temperature (~ -60 ppm/K for poly-Si). *)

val density : float
(** kg/m³ of poly-Si. *)

val thermal_strain : float -> float
(** [thermal_strain temp] is the residual axial strain in the flexures
    at [temp]: positive = tension (cold), negative = compression (hot).
    Zero at room temperature. *)

val air_viscosity : float -> float
(** [air_viscosity temp] dynamic viscosity of air in Pa·s, Sutherland's
    law. *)

val gravity : float
(** Standard gravity, m/s², used to express accelerations in g. *)
