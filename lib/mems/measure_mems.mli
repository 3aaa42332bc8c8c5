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
(** The five specs at [temp] (°C) from {!Accel_model.response_mv_per_v}.
    Raises [Measurement_failed] on a degenerate scale factor or when
    neither 3-dB point is found.

    The peak is the golden-section maximum of the response on a log
    axis, inside the two cells around the first maximum of a 121-point
    grid from 500 Hz to 50 kHz. That first maximum is found by
    comparing neighbours and halving the index range (about 14
    responses), which needs the response to rise strictly up to it and
    not rise after it on the grid. The bandwidth is Brent's root of
    [|H| − √2·|H(0)|] inside the first sign change of a 300-cell grid
    from 100 Hz to the peak, or, for a part that never reaches +3 dB
    there, of [|H| − |H(0)|/√2] on a 300-cell grid from the peak to 20
    times it; {!Stc_numerics.Roots.find_bracket} halves those grids
    (about 11 responses each), which needs the response to cross once
    on them. With both premises an instance (three temperatures) takes
    about 200 responses where scanning the grids took about 1,060, and
    the specs keep every bit. They were checked against full scans
    with the boxed complex solve on 125,000 population draws (5,000
    from each of 25 seeds) and on 50,000 draws at 2 to 8 times the
    population's spread, all identical; [mems.pins] in the test suite
    keeps that reference and checks generated draws against it. *)

val tri_temperature : Geometry.t -> values * values * values
(** (room, −40 °C, 80 °C) measurements. *)
