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
    gain never reaches unity). *)
