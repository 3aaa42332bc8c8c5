module Rng = Stc_numerics.Rng

type correlated = {
  params : Variation.param array;
  rho : float;
  sigmas : float array;  (* relative sigma per parameter *)
}

(* relative standard deviation implied by a variation description *)
let relative_sigma (p : Variation.param) =
  match p.Variation.dist with
  | Variation.Uniform_relative f -> Float.abs f /. sqrt 3.0
  | Variation.Normal_relative f -> Float.abs f
  | Variation.Uniform_absolute (lo, hi) ->
    if p.Variation.nominal = 0.0 then 0.0
    else Float.abs ((hi -. lo) /. p.Variation.nominal) /. (2.0 *. sqrt 3.0)
  | Variation.Normal_absolute s ->
    if p.Variation.nominal = 0.0 then 0.0
    else Float.abs (s /. p.Variation.nominal)
  | Variation.Fixed -> 0.0

let correlated ~params ~die_correlation =
  if die_correlation < 0.0 || die_correlation > 1.0 then
    invalid_arg "Process_model.correlated: die_correlation outside [0,1]";
  {
    params;
    rho = die_correlation;
    sigmas = Array.map relative_sigma params;
  }

let draw_correlated t rng =
  let die = Rng.normal rng in
  let wg = sqrt t.rho and wl = sqrt (1.0 -. t.rho) in
  Array.mapi
    (fun i p ->
      let deviation = (wg *. die) +. (wl *. Rng.normal rng) in
      p.Variation.nominal *. (1.0 +. (t.sigmas.(i) *. deviation)))
    t.params

let correlated_device ~seed device ~die_correlation ~n =
  let model = correlated ~params:device.Montecarlo.params ~die_correlation in
  Montecarlo.generate_parallel ~draw:(draw_correlated model) ~seed device ~n

type defect_model = {
  rate : float;
  severity : float;
}

let inject rng model params =
  if model.rate < 0.0 || model.rate > 1.0 then
    invalid_arg "Process_model.inject: rate outside [0,1]";
  if model.severity <= 1.0 then
    invalid_arg "Process_model.inject: severity must exceed 1";
  if Rng.float rng >= model.rate then (params, false)
  else begin
    let defected = Array.copy params in
    let victim = Rng.int rng (Array.length params) in
    let factor = if Rng.bool rng then model.severity else 1.0 /. model.severity in
    defected.(victim) <- defected.(victim) *. factor;
    (defected, true)
  end

let defective_draws ~seed device model ~n =
  let draw rng =
    let params = Variation.sample_all rng device.Montecarlo.params in
    fst (inject rng model params)
  in
  (* gross defects make simulation failures likelier; allow more retries *)
  Montecarlo.generate_parallel ~max_failure_ratio:2.0 ~draw ~seed device ~n
