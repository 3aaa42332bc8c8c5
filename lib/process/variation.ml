module Rng = Stc_numerics.Rng

type distribution =
  | Uniform_relative of float
  | Normal_relative of float
  | Uniform_absolute of float * float
  | Normal_absolute of float
  | Fixed

type param = {
  name : string;
  nominal : float;
  dist : distribution;
}

let param name nominal dist = { name; nominal; dist }

let uniform_pct name nominal ~pct = param name nominal (Uniform_relative pct)

let sample rng p =
  match p.dist with
  | Uniform_relative f ->
    let half = Float.abs (p.nominal *. f) in
    Rng.uniform rng (p.nominal -. half) (p.nominal +. half)
  | Normal_relative f -> Rng.gaussian rng ~mean:p.nominal ~sigma:(Float.abs (p.nominal *. f))
  | Uniform_absolute (lo, hi) -> Rng.uniform rng lo hi
  | Normal_absolute sigma -> Rng.gaussian rng ~mean:p.nominal ~sigma
  | Fixed -> p.nominal

let sample_all rng params = Array.map (sample rng) params

let nominal_values params = Array.map (fun p -> p.nominal) params
