(** Richer manufacturing-process models — the paper's future-work item
    "generate training instances that model the manufacturing process
    in a more accurate fashion" (Sec. 6).

    {1 Correlated (die-level + local) variation}

    Real process variation decomposes into a die-level component shared
    by every device parameter on the die and an independent local
    (mismatch) component. [correlated] preserves each parameter's
    marginal spread but splits its variance: relative deviation
    [d_i = √ρ·G + √(1−ρ)·L_i] with [G] one standard normal per
    instance, [L_i] independent standard normals.

    {1 Defect injection}

    "test instances that also contain real defects": with probability
    [rate] a drawn instance receives one gross parametric defect — a
    randomly chosen parameter is multiplied or divided by [severity],
    modelling a short/open-like structural fault far outside normal
    variation. *)

type correlated

val correlated :
  params:Variation.param array -> die_correlation:float -> correlated
(** [die_correlation] ρ ∈ [0,1]; ρ = 0 reduces to independent Gaussian
    variation with each parameter's own spread (uniform distributions
    are matched by variance). *)

val draw_correlated : correlated -> Stc_numerics.Rng.t -> float array

val correlated_device :
  seed:int -> Montecarlo.device -> die_correlation:float -> n:int ->
  Montecarlo.dataset
(** Convenience: {!Montecarlo.generate_parallel} under the correlated
    model. *)

type defect_model = {
  rate : float;      (** probability an instance is defective *)
  severity : float;  (** gross multiplier, e.g. 3.0 *)
}

val inject :
  Stc_numerics.Rng.t -> defect_model -> float array -> float array * bool
(** [inject rng model params] returns the (possibly) defected parameter
    vector and whether a defect was applied. *)

val defective_draws :
  seed:int -> Montecarlo.device -> defect_model -> n:int ->
  Montecarlo.dataset
(** {!Montecarlo.generate_parallel} where each draw passes through
    {!inject}. *)
