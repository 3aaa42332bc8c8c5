(** Per-specification measurement calibration.

    The paper's exact transistor sizing is not published, so our
    simulated nominal device does not land exactly on the Table 1/2
    nominal column. A calibration maps each measured spec onto the
    paper's scale so the published acceptability ranges apply
    unchanged. The map is monotone affine per spec, so pass/fail
    topology and inter-spec correlations are preserved. *)

type t

val fit : measured_nominal:float -> target_nominal:float -> t
(** The ratio [k = target_nominal / measured_nominal] (value' =
    k·value); when [measured_nominal] is too close to zero for a stable
    ratio, the offset [d = target_nominal - measured_nominal] (value' =
    value + d) instead. *)

val apply : t -> float -> float

val apply_all : t array -> float array -> float array
(** Element-wise; lengths must match. *)
