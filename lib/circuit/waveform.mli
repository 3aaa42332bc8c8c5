(** Measurements over sampled waveforms [(time, value)] — the analysis
    layer a bench engineer would call "measure statements". *)

type t = (float * float) array

val value_at : t -> float -> float
(** Linear interpolation, clamped at the ends. *)

val final : t -> float

val rise_time : ?final:float -> t -> float option
(** 10 %→90 % transition time between the initial value and [final],
    by default the last sample. [None] if the waveform never crosses
    the thresholds.

    A caller that knows the settled level, say from a DC solve at the
    input's final value, passes it as [final] and need not keep the
    tail: each crossing is read from the first samples that reach its
    level, so a waveform cut at its first sample at or past the 90 %
    level gives the same answer as the whole one against the same
    [final]. *)

val overshoot : t -> float
(** (peak − final) / |step|, where step = final − initial; 0 when the
    waveform never exceeds its final value or the step is zero. *)

val settling_time : ?band:float -> t -> float option
(** Time after which the waveform stays within [band] (default 0.01,
    i.e. ±1 %) of the final value, relative to the step magnitude.
    Measured from t = 0. *)

val slew_rate : ?final:float -> t -> float option
(** Average slope between the 20 % and 80 % crossings of the step from
    the initial value to [final], by default the last sample — the
    robust large-signal slew measurement (immune to edge feedthrough
    spikes). [None] when the waveform never crosses the levels. As with
    {!rise_time}, a waveform cut at its first sample at or past the
    80 % level reads the same as the whole one against the same
    [final]. *)

val peak : t -> float * float
(** (time, value) of the maximum value. *)
