(** Measurements over sampled waveforms [(time, value)] — the analysis
    layer a bench engineer would call "measure statements". *)

type t = (float * float) array

val value_at : t -> float -> float
(** Linear interpolation, clamped at the ends. *)

val final : t -> float

val rise_time : t -> float option
(** 10 %→90 % transition time between the initial and final values.
    [None] if the waveform never crosses the thresholds. *)

val overshoot : t -> float
(** (peak − final) / |step|, where step = final − initial; 0 when the
    waveform never exceeds its final value or the step is zero. *)

val settling_time : ?band:float -> t -> float option
(** Time after which the waveform stays within [band] (default 0.01,
    i.e. ±1 %) of the final value, relative to the step magnitude.
    Measured from t = 0. *)

val slew_rate : t -> float option
(** Average slope between the 20 % and 80 % crossings of the step — the
    robust large-signal slew measurement (immune to edge feedthrough
    spikes). [None] when the waveform never crosses the levels. *)

val peak : t -> float * float
(** (time, value) of the maximum value. *)
