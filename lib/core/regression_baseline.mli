(** The regression-based alternative that Sec. 4.1 of the paper argues
    against: instead of classifying pass/fail of the dropped set
    directly, train one ε-SVR *value* regressor per dropped
    specification, predict the spec values, and apply the acceptability
    ranges to the predictions.

    This is the approach of the alternate-test literature the paper
    cites; it needs to model the full response surface rather than just
    the class boundary, which is why the paper prefers classification.
    Implemented here as a baseline for the comparison ablation. *)

type config = {
  c : float;
  epsilon : float;
  gamma : float option;  (** None = {!Stc_svm.Kernel.median_gamma} *)
}

val default_config : config
(** C = 10, ε = 0.01 (in normalised units), γ from the median
    heuristic. *)

type t

val train : ?config:config -> Device_data.t -> dropped:int array -> t
(** One regressor per dropped spec, each mapping the normalised kept
    features to the dropped spec's *normalised* value. *)

val predict_values : t -> float array -> float array
(** [predict_values t features] returns the predicted (denormalised)
    values of the dropped specs, in [dropped] order. *)

val classify : t -> float array -> int
(** +1 iff every predicted dropped-spec value falls inside its
    acceptability range — the drop-in replacement for the
    classification model in the compaction flow. *)

val prediction_error : t -> Device_data.t -> float
(** Fraction of instances whose dropped-set pass/fail the thresholded
    regression mispredicts (same metric as
    {!Compaction.prediction_error}). *)

val dropped : t -> int array
val kept : t -> int array
