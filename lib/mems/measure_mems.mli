(** Extraction of the paper's five accelerometer specifications
    (Table 2) at one temperature, and the 15-value tri-temperature
    test suite. *)

type values = {
  scale_factor : float;      (** mV/V per g, at DC *)
  cross_axis : float;        (** mV/V per g of cross-axis acceleration,
                                 signed by the coupling direction *)
  peak_freq : float;         (** kHz *)
  quality : float;           (** dimensionless, from the half-power width *)
  bandwidth : float;         (** kHz, +3 dB flat-band edge (−3 dB
                                 low-pass crossing for overdamped parts) *)
}

val to_array : values -> float array
(** Values in Table 2 order, the order of the fields above. *)

exception Measurement_failed of string

val measure : Geometry.t -> temp:float -> values

val tri_temperature : Geometry.t -> values * values * values
(** (room, −40 °C, 80 °C) measurements. *)
