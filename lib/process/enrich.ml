(* Boundary-biased sequential enrichment (ISSUE 8 tentpole).

   A cheap uniform pilot population is used to fit one linear surrogate
   per specification; the remaining simulation budget is then drawn by
   rejection sampling with acceptance probability peaked where the
   surrogate predicts the device sits near its acceptance boundary.
   Every kept instance records an importance weight w = Z / a(x) so the
   self-normalised weighted statistics over the full population remain
   unbiased estimators of the uniform-sampling statistics.

   Determinism: enriched slot [i] consumes only the private streams
   [Montecarlo.instance_rng ~seed ~index:i ~attempt], so the dataset is
   bit-identical at any domain count, exactly like
   [Montecarlo.generate_parallel]. *)

module Obs = Stc_obs.Registry

let m_pilot = Obs.counter "stc_enrich_pilot_total"
let m_enriched = Obs.counter "stc_enrich_enriched_total"
let m_proposals = Obs.counter "stc_enrich_proposals_total"
let g_boundary = Obs.gauge "stc_enrich_boundary_hit_rate"

(* τ, the half-width of the target boundary band in pilot-sigma units;
   the least acceptance probability, which keeps every weight below
   Z / floor_probability and every region reachable; and the failed-draw
   budget of the enriched phase, as in [Montecarlo.generate_parallel]. *)
let boundary_width = 1.0
let floor_probability = 0.05
let max_failure_ratio = 0.5

type stats = {
  pilot : int;
  enriched : int;
  proposals : int;
  sim_failures : int;
  acceptance_rate : float;
  boundary_hit_rate : float;
  surrogate_ok : bool;
}

(* --- surrogate ----------------------------------------------------- *)

type surrogate = {
  betas : float array array;  (* per spec: param coefficients ++ intercept *)
  sigmas : float array;       (* per spec: pilot spread (quantile-robust) *)
}

let finite x = Float.is_finite x

let all_finite xs = Array.for_all finite xs

let spec_sigmas (d : Montecarlo.dataset) =
  let spec_count =
    if Array.length d.specs = 0 then 0 else Array.length d.specs.(0)
  in
  Array.init spec_count (fun j ->
      Stc_numerics.Stats.stddev (Montecarlo.spec_column d j))

(* Least-squares fit of spec_j ~ [params; 1]·beta on the pilot; [None]
   when the pilot is too small, numerically singular, or produces
   non-finite coefficients — callers degrade to uniform sampling. *)
let fit_surrogate (pilot : Montecarlo.dataset) =
  let n = Array.length pilot.inputs in
  if n = 0 then None
  else begin
    let p = Array.length pilot.inputs.(0) in
    let spec_count = Array.length pilot.specs.(0) in
    if n < p + 2 then None
    else begin
      let a =
        Stc_numerics.Mat.init n (p + 1) (fun i j ->
            if j < p then pilot.inputs.(i).(j) else 1.0)
      in
      let sigmas = spec_sigmas pilot in
      try
        let betas =
          Array.init spec_count (fun j ->
              Stc_numerics.Lu.least_squares a (Montecarlo.spec_column pilot j))
        in
        if
          Array.for_all all_finite betas
          && Array.for_all (fun s -> finite s && s > 0.0) sigmas
        then Some { betas; sigmas }
        else None
      with Stc_numerics.Lu.Singular _ | Invalid_argument _ -> None
    end
  end

let predict_spec beta params =
  let p = Array.length params in
  let acc = ref beta.(p) in
  for k = 0 to p - 1 do
    acc := !acc +. (beta.(k) *. params.(k))
  done;
  !acc

(* Signed normalised margin of one spec vector: the worst (smallest)
   per-spec distance to a limit in pilot-sigma units. Near zero means
   near the acceptance boundary; one-sided specs contribute [infinity]
   on their unbounded side. *)
let margin_of_specs ~limits ~sigmas values =
  let m = ref infinity in
  Array.iteri
    (fun j v ->
      let lo, hi = limits.(j) in
      let s = sigmas.(j) in
      let d_lo = if lo = neg_infinity then infinity else (v -. lo) /. s in
      let d_hi = if hi = infinity then infinity else (hi -. v) /. s in
      let d = Float.min d_lo d_hi in
      if d < !m then m := d)
    values;
  !m

let predicted_margin surrogate ~limits params =
  let predicted = Array.map (fun beta -> predict_spec beta params) surrogate.betas in
  margin_of_specs ~limits ~sigmas:surrogate.sigmas predicted

(* Acceptance probability: a Gaussian bump of width [boundary_width]
   around the predicted boundary, floored so that no region of the
   process space is ever starved (which keeps weights bounded by
   Z / floor_probability). *)
let acceptance margin =
  let t = margin /. boundary_width in
  let bump = exp (-0.5 *. t *. t) in
  floor_probability +. ((1.0 -. floor_probability) *. bump)

let boundary_fraction ~limits ~sigmas ~width (d : Montecarlo.dataset) =
  let n = Array.length d.specs in
  if n = 0 then 0.0
  else begin
    let hits = ref 0 in
    Array.iter
      (fun values ->
        let m = margin_of_specs ~limits ~sigmas values in
        if Float.abs m <= width then incr hits)
      d.specs;
    float_of_int !hits /. float_of_int n
  end

(* --- generation ---------------------------------------------------- *)

let generate ?domains ~seed ~pilot
    (device : Montecarlo.device) ~limits ~n =
  if pilot <= 0 then invalid_arg "Enrich.generate: pilot must be positive";
  if pilot >= n then invalid_arg "Enrich.generate: pilot must be < n";
  if Array.length limits <> device.spec_count then
    invalid_arg "Enrich.generate: limits length must match spec_count";
  let domains = Montecarlo.resolve_domains domains in
  (* Phase 1: uniform pilot on instance streams 0 .. pilot-1. *)
  let pilot_data =
    Montecarlo.generate_parallel ~max_failure_ratio ~domains ~seed device
      ~n:pilot
  in
  let surrogate = fit_surrogate pilot_data in
  (* Phase 2: boundary-biased rejection sampling on streams
     pilot .. n-1. With no usable surrogate this degrades to uniform
     sampling with unit weights. *)
  let n_enriched = n - pilot in
  let inputs = Array.make n [||] in
  let specs = Array.make n [||] in
  let weights = Array.make n 1.0 in
  Array.blit pilot_data.inputs 0 inputs 0 pilot;
  Array.blit pilot_data.specs 0 specs 0 pilot;
  let max_failures =
    Stdlib.max 10
      (int_of_float (max_failure_ratio *. float_of_int n_enriched))
  in
  let failures = Atomic.make 0 in
  let proposals = Atomic.make 0 in
  let accepted = Atomic.make 0 in
  let fill_instance k =
    let index = pilot + k in
    let rec attempt_loop attempt =
      if Atomic.get failures > max_failures then ()
      else begin
        let rng = Montecarlo.instance_rng ~seed ~index ~attempt in
        let params = Variation.sample_all rng device.params in
        match surrogate with
        | None -> begin
          (* uniform fallback: every proposal is accepted *)
          Atomic.incr proposals;
          Atomic.incr accepted;
          match device.simulate params with
          | Some values ->
            inputs.(index) <- params;
            specs.(index) <- values
          | None ->
            Atomic.incr failures;
            attempt_loop (attempt + 1)
        end
        | Some s -> begin
          Atomic.incr proposals;
          let a = acceptance (predicted_margin s ~limits params) in
          let u = Stc_numerics.Rng.float rng in
          if u >= a then attempt_loop (attempt + 1)
          else begin
            Atomic.incr accepted;
            match device.simulate params with
            | Some values ->
              inputs.(index) <- params;
              specs.(index) <- values;
              weights.(index) <- 1.0 /. a
            | None ->
              Atomic.incr failures;
              attempt_loop (attempt + 1)
          end
        end
      end
    in
    attempt_loop 0
  in
  Pool.with_pool ~domains (fun pool -> Pool.run pool ~n:n_enriched fill_instance);
  if Atomic.get failures > max_failures then
    raise
      (Montecarlo.Too_many_failures
         (Printf.sprintf "%s: %d failed draws for %d enriched instances, over the cap of %d"
            device.device_name (Atomic.get failures) n_enriched max_failures));
  (* Normalise: raw weights are 1/a; the density actually sampled is
     p(x)·a(x)/Z with Z = E_p[a], estimated by accepted/proposals. Both
     counts are per-instance deterministic, so Z — and therefore every
     weight — is identical at any domain count. *)
  let z =
    float_of_int (Atomic.get accepted) /. float_of_int (Atomic.get proposals)
  in
  (match surrogate with
  | Some _ ->
    for i = pilot to n - 1 do
      weights.(i) <- weights.(i) *. z
    done
  | None -> ());
  let dataset : Montecarlo.dataset =
    {
      inputs;
      specs;
      weights;
      discarded = pilot_data.discarded + Atomic.get failures;
    }
  in
  let boundary_hit_rate =
    match surrogate with
    | Some s ->
      boundary_fraction ~limits ~sigmas:s.sigmas ~width:boundary_width dataset
    | None -> 0.0
  in
  Obs.Counter.add m_pilot pilot;
  Obs.Counter.add m_enriched n_enriched;
  Obs.Counter.add m_proposals (Atomic.get proposals);
  Obs.Gauge.set g_boundary boundary_hit_rate;
  let stats =
    {
      pilot;
      enriched = n_enriched;
      proposals = Atomic.get proposals;
      sim_failures = Atomic.get failures;
      acceptance_rate = z;
      boundary_hit_rate;
      surrogate_ok = surrogate <> None;
    }
  in
  (dataset, stats)
