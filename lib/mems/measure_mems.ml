module Roots = Stc_numerics.Roots

type values = {
  scale_factor : float;
  cross_axis : float;
  peak_freq : float;
  quality : float;
  bandwidth : float;
}

let to_array v =
  [| v.scale_factor; v.cross_axis; v.peak_freq; v.quality; v.bandwidth |]

exception Measurement_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Measurement_failed s)) fmt

let cold_temp = -40.0

let hot_temp = 80.0

(* Golden-section maximisation of |H| on a log-frequency axis. *)
let find_peak model ~f_lo ~f_hi =
  let h logf = Accel_model.response_mv_per_v model ~axis:Accel_model.X_axis
                 ~freq:(10.0 ** logf)
  in
  let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  (* interior probes x1 < x2 in [a, c]; keep the half containing the max *)
  let rec shrink a c x1 f1 x2 f2 iter =
    if iter > 100 || c -. a < 1e-8 then 10.0 ** (0.5 *. (a +. c))
    else if f1 > f2 then begin
      let c' = x2 in
      let x1' = c' -. (phi *. (c' -. a)) in
      shrink a c' x1' (h x1') x1 f1 (iter + 1)
    end
    else begin
      let a' = x1 in
      let x2' = a' +. (phi *. (c -. a')) in
      shrink a' c x2 f2 x2' (h x2') (iter + 1)
    end
  in
  (* coarse scan to bracket the global peak before refining *)
  let best = ref (log10 f_lo) and best_v = ref (h (log10 f_lo)) in
  let steps = 120 in
  for i = 1 to steps do
    let lf = log10 f_lo
             +. ((log10 f_hi -. log10 f_lo) *. float_of_int i /. float_of_int steps)
    in
    let v = h lf in
    if v > !best_v then begin
      best := lf;
      best_v := v
    end
  done;
  let span = (log10 f_hi -. log10 f_lo) /. float_of_int steps in
  let a = !best -. span and c = !best +. span in
  let x1 = c -. (phi *. (c -. a)) and x2 = a +. (phi *. (c -. a)) in
  shrink a c x1 (h x1) x2 (h x2) 0

let measure geometry ~temp =
  let model = Accel_model.build geometry ~temp in
  let sf0 = Accel_model.response_mv_per_v model ~axis:Accel_model.X_axis ~freq:0.0 in
  if not (Float.is_finite sf0) || sf0 <= 0.0 then fail "degenerate scale factor";
  let cross =
    let x =
      Accel_model.displacement model ~axis:Accel_model.Y_axis ~freq:0.0
        ~accel:Material.gravity
    in
    Accel_model.readout_mv_per_v model ~x:x.Complex.re
  in
  let fp = find_peak model ~f_lo:500.0 ~f_hi:50e3 in
  let sf_peak =
    Accel_model.response_mv_per_v model ~axis:Accel_model.X_axis ~freq:fp
  in
  let response f =
    Accel_model.response_mv_per_v model ~axis:Accel_model.X_axis ~freq:f
  in
  (* Quality factor from the resonant peaking ratio r = |H|peak/|H|dc:
     for a second-order system r = 1/(2ζ√(1-ζ²)), so
     ζ² = (1 - √(1 - 1/r²))/2 and Q = 1/(2ζ). This stays smooth and
     well defined across the whole Monte-Carlo population, unlike the
     half-power width, which ceases to exist below Q ≈ 1.2. *)
  let quality =
    let r = sf_peak /. sf0 in
    if r <= 1.0001 then Accel_model.quality_estimate model
    else begin
      let zeta2 = (1.0 -. sqrt (Float.max 0.0 (1.0 -. (1.0 /. (r *. r))))) /. 2.0 in
      1.0 /. (2.0 *. sqrt zeta2)
    end
  in
  (* +3 dB flat-band edge; overdamped parts use the -3 dB crossing *)
  let bandwidth =
    let plus3 f = response f -. (sf0 *. sqrt 2.0) in
    match Roots.find_bracket plus3 ~lo:100.0 ~hi:fp ~steps:300 with
    | Some (a, b) -> Roots.brent plus3 a b
    | None ->
      let minus3 f = response f -. (sf0 /. sqrt 2.0) in
      (match Roots.find_bracket minus3 ~lo:fp ~hi:(fp *. 20.0) ~steps:300 with
       | Some (a, b) -> Roots.brent minus3 a b
       | None -> fail "no 3-dB point")
  in
  {
    scale_factor = sf0;
    cross_axis = cross;
    peak_freq = fp /. 1e3;
    quality;
    bandwidth = bandwidth /. 1e3;
  }

let tri_temperature geometry =
  let room = measure geometry ~temp:Material.room_temperature in
  let cold = measure geometry ~temp:cold_temp in
  let hot = measure geometry ~temp:hot_temp in
  (room, cold, hot)
