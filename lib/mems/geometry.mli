(** Accelerometer geometry: proof-mass plate, four folded-flexure
    suspension springs, and a differential comb-finger readout.

    The sense axis is x. Springs are described by their beam geometry
    and an orientation angle: a spring whose axis lies along y
    (angle = ±90°) is compliant in x; angle misalignment couples the
    x and y modes, which is what the cross-axis-sensitivity
    specification measures. *)

type spring = {
  beam : Beam.t;
  angle : float;  (** orientation of the beam axis, radians *)
}

type t = {
  plate_length : float;   (** m *)
  plate_width : float;    (** m *)
  thickness : float;      (** m, structural film *)
  springs : spring array; (** the four suspension flexures *)
  finger_count : int;     (** differential comb fingers per side *)
  finger_overlap : float; (** m *)
  finger_gap : float;     (** m, nominal electrode gap *)
  substrate_gap : float;  (** m, plate-to-substrate gap (damping) *)
  damping_factor : float; (** calibration multiplier on film damping *)
}

val nominal : t
(** Sized so the room-temperature specs land near the paper's Table 2:
    peak frequency ≈ 5.6 kHz, quality factor ≈ 2.1, scale factor
    ≈ 9.5 mV/V. *)

val ideal_angles : float array
(** The four ideal spring orientations (±90°). *)

val proof_mass : t -> float
(** Plate mass plus the effective (1/2) comb and (13/35) beam
    contributions, kg. *)

val rest_capacitance : t -> float
(** One-sided comb capacitance at rest, F. *)

val damping_coefficient : t -> temp:float -> float
(** Viscous damping b (kg/s): Couette shear film under the plate plus
    comb-gap shear, times the calibration factor. *)
