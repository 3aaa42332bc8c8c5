(** Time-domain source waveforms (SPICE-like). *)

type t =
  | Dc of float
  | Pulse of {
      v1 : float;       (** initial level *)
      v2 : float;       (** pulsed level *)
      delay : float;
      rise : float;
      fall : float;
      width : float;
      period : float;   (** 0 or infinite means single pulse *)
    }

val value : t -> float -> float
(** [value w t] evaluates the waveform at time [t] (t >= 0). *)

val breakpoints : t -> tmax:float -> float list
(** Times in [0, tmax] at which the waveform has slope discontinuities;
    the transient engine aligns steps with these. *)
