(** Extraction of the paper's eleven op-amp specifications (Table 1)
    from simulation, in the paper's units. *)

type values = {
  gain : float;            (** open-loop DC gain, dimensionless *)
  bandwidth_3db : float;   (** Hz *)
  unity_gain_freq : float; (** MHz *)
  slew_rate : float;       (** V/µs *)
  rise_time : float;       (** µs *)
  overshoot : float;       (** fraction of the step, dimensionless *)
  settling_time : float;   (** ns, ±1 % band *)
  quiescent_current : float; (** µA *)
  common_mode_gain : float;  (** dimensionless *)
  power_supply_gain : float; (** dimensionless *)
  short_circuit_current : float; (** mA *)
}

val to_array : values -> float array
(** Values in Table 1 order, the order of the fields above. *)

exception Measurement_failed of string

val measure : Opamp.params -> values
(** Runs all six test benches and extracts every spec. Raises
    [Measurement_failed] when a bench does not converge or a response
    never crosses a required threshold (e.g. a broken instance whose
    gain never reaches unity).

    The two step responses are read from the output after the input
    edge. The large step (4 V, slew rate and rise time) is read
    against its settled level: the bench's operating point with the
    pulse at its final level, solved from {!Opamp.initial_guess} (a
    solve that does not converge is a [Measurement_failed]). Its
    transient ends at the first accepted point at or past 90 % of the
    way from the first sample after the edge to that level, the last
    sample the 10–90 % and 20–80 % crossings read, instead of running
    to 18 µs ({!Tran.run}'s [until]). The level agrees with the 18-µs
    output within 2.45e-9 V on seeds 2005–2008's first 200 draws each,
    and the points up to the stop are the full run's bit for bit. The small step (0.1 V,
    overshoot and settling time) still runs to its 4 µs: the ringing
    peak and the last exit from the ±1 % band are in the tail, and the
    band is read against the last sample. *)
