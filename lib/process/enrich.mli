(** Boundary-biased sequential enrichment with importance weights.

    A uniform pilot population fits one linear surrogate per
    specification; the remaining budget is drawn by rejection sampling
    concentrated where the surrogate predicts the device lies near its
    acceptance boundary. Each kept instance carries an importance
    weight so self-normalised weighted statistics over the population
    (see [Stc.Metrics] weighted tallies) are unbiased estimates of the
    uniform-sampling statistics.

    Enriched instance [i] consumes only the private streams
    [Montecarlo.instance_rng ~seed ~index:i ~attempt], so the dataset
    is bit-identical at any domain count. *)

type config = {
  boundary_width : float;
      (** τ: half-width of the target boundary band, in pilot-sigma
          units (default 1.0) *)
  floor_probability : float;
      (** minimum acceptance probability, keeping weights bounded and
          every region reachable (default 0.05) *)
  max_failure_ratio : float;
      (** failed-simulation budget for the enriched phase, as in
          {!Montecarlo.generate_parallel} (default 0.5) *)
}

val default_config : config

type stats = {
  pilot : int;             (** uniform pilot instances *)
  enriched : int;          (** boundary-biased instances *)
  proposals : int;         (** rejection-sampling proposals drawn *)
  sim_failures : int;      (** failed simulations in the enriched phase *)
  acceptance_rate : float; (** Ẑ = accepted / proposals *)
  boundary_hit_rate : float;
      (** fraction of all kept instances whose true normalised margin
          lies within [boundary_width] of the boundary *)
  surrogate_ok : bool;
      (** false when the pilot fit was singular or non-finite and the
          enriched phase degraded to uniform sampling *)
}

val generate :
  ?config:config ->
  ?domains:int ->
  seed:int ->
  pilot:int ->
  Montecarlo.device ->
  limits:(float * float) array ->
  n:int ->
  Montecarlo.dataset * stats
(** [generate ~seed ~pilot device ~limits ~n] draws [pilot] uniform
    instances, then [n - pilot] boundary-biased ones, for [n] total.
    [limits.(j)] is the [(lower, upper)] acceptance range of spec [j]
    (use [neg_infinity]/[infinity] for one-sided specs). Requires
    [0 < pilot < n]. Raises [Montecarlo.Too_many_failures] under the
    same abort-at-threshold semantics as {!Montecarlo.generate_parallel}. *)

(** {1 Margin helpers}

    Shared by the bench harness and the QA oracles to measure boundary
    density on arbitrary datasets. *)

val spec_sigmas : Montecarlo.dataset -> float array
(** Per-spec standard deviation of the measured values. *)

val margin_of_specs :
  limits:(float * float) array -> sigmas:float array -> float array -> float
(** Worst signed distance of one spec vector to its limits, in sigma
    units; near zero means near the acceptance boundary. *)

val boundary_fraction :
  limits:(float * float) array ->
  sigmas:float array ->
  width:float ->
  Montecarlo.dataset ->
  float
(** Fraction of instances whose absolute margin is at most [width]. *)
