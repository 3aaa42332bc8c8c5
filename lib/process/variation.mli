(** Manufacturing-variation descriptions for device parameters. *)

type distribution =
  | Uniform_relative of float
      (** ±fraction of nominal, uniform (the paper's ±10 % draws) *)
  | Normal_relative of float
      (** σ as a fraction of nominal, Gaussian *)
  | Uniform_absolute of float * float  (** explicit [lo, hi] *)
  | Normal_absolute of float           (** absolute σ around nominal *)
  | Fixed                              (** no variation *)

type param = {
  name : string;
  nominal : float;
  dist : distribution;
}

val param : string -> float -> distribution -> param

val uniform_pct : string -> float -> pct:float -> param
(** [uniform_pct name nominal ~pct:0.10] = ±10 % uniform. *)

val sample : Stc_numerics.Rng.t -> param -> float

val sample_all : Stc_numerics.Rng.t -> param array -> float array

val nominal_values : param array -> float array
