(* Tests for the MEMS accelerometer substrate. *)

module Material = Stc_mems.Material
module Beam = Stc_mems.Beam
module Geometry = Stc_mems.Geometry
module Accel_model = Stc_mems.Accel_model
module Measure_mems = Stc_mems.Measure_mems

let check_close tol = Alcotest.(check (float tol))

let room = Material.room_temperature

let material_tests =
  [
    Alcotest.test_case "young's modulus softens when hot" `Quick (fun () ->
        let e_room = Material.youngs_modulus room in
        let e_hot = Material.youngs_modulus 80.0 in
        let e_cold = Material.youngs_modulus (-40.0) in
        Alcotest.(check bool) "hot softer" true (e_hot < e_room);
        Alcotest.(check bool) "cold stiffer" true (e_cold > e_room));
    Alcotest.test_case "thermal strain sign" `Quick (fun () ->
        check_close 1e-15 "zero at room" 0.0 (Material.thermal_strain room);
        Alcotest.(check bool) "hot compressive" true (Material.thermal_strain 80.0 < 0.0);
        Alcotest.(check bool) "cold tensile" true (Material.thermal_strain (-40.0) > 0.0));
    Alcotest.test_case "viscosity increases with temperature" `Quick (fun () ->
        Alcotest.(check bool) "sutherland" true
          (Material.air_viscosity 80.0 > Material.air_viscosity (-40.0)));
  ]

let beam = { Beam.length = 260e-6; width = 2e-6; thickness = 5e-6 }

let beam_tests =
  [
    Alcotest.test_case "lateral stiffness formula" `Quick (fun () ->
        let k = Beam.lateral_stiffness ~strain:0.0 beam ~temp:room in
        let expected =
          Material.youngs_modulus room *. 5e-6 *. (2e-6 ** 3.0) /. (260e-6 ** 3.0)
        in
        check_close (expected *. 1e-9) "Etw3/L3" expected k);
    Alcotest.test_case "axial much stiffer than lateral" `Quick (fun () ->
        let ka = Beam.axial_stiffness beam ~temp:room in
        let kl = Beam.lateral_stiffness ~strain:0.0 beam ~temp:room in
        Alcotest.(check bool) "ratio ~ (L/w)^2" true (ka /. kl > 1000.0));
    Alcotest.test_case "folded axial between the two" `Quick (fun () ->
        let ka = Beam.axial_stiffness beam ~temp:room in
        let kf = Beam.folded_axial_stiffness beam ~temp:room in
        let kl = Beam.lateral_stiffness ~strain:0.0 beam ~temp:room in
        Alcotest.(check bool) "kl < kf < ka" true (kl < kf && kf < ka));
    Alcotest.test_case "tension stiffens, compression softens" `Quick (fun () ->
        let k0 = Beam.lateral_stiffness ~strain:0.0 beam ~temp:room in
        let kt = Beam.lateral_stiffness ~strain:1e-5 beam ~temp:room in
        let kc = Beam.lateral_stiffness ~strain:(-1e-5) beam ~temp:room in
        Alcotest.(check bool) "order" true (kc < k0 && k0 < kt));
    Alcotest.test_case "stiffness floor beyond buckling" `Quick (fun () ->
        let eps = -2.0 *. Beam.buckling_strain beam in
        let k = Beam.lateral_stiffness ~strain:eps beam ~temp:room in
        Alcotest.(check bool) "clamped positive" true (k > 0.0));
    Alcotest.test_case "buckling strain formula" `Quick (fun () ->
        let expected =
          Float.pi *. Float.pi *. 2e-6 *. 2e-6 /. (12.0 *. 260e-6 *. 260e-6)
        in
        check_close (expected *. 1e-9) "pi^2 w^2/12L^2" expected
          (Beam.buckling_strain beam));
  ]

let geometry_tests =
  [
    Alcotest.test_case "proof mass close to plate mass" `Quick (fun () ->
        let g = Geometry.nominal in
        let plate =
          2330.0 *. g.Geometry.plate_length *. g.Geometry.plate_width
          *. g.Geometry.thickness
        in
        let m = Geometry.proof_mass g in
        Alcotest.(check bool) "plate dominates" true (m > plate && m < 1.5 *. plate));
    Alcotest.test_case "rest capacitance positive" `Quick (fun () ->
        Alcotest.(check bool) "C0" true (Geometry.rest_capacitance Geometry.nominal > 0.0));
    Alcotest.test_case "damping grows with temperature" `Quick (fun () ->
        let g = Geometry.nominal in
        Alcotest.(check bool) "b(80) > b(-40)" true
          (Geometry.damping_coefficient g ~temp:80.0
           > Geometry.damping_coefficient g ~temp:(-40.0)));
  ]

let model_tests =
  [
    Alcotest.test_case "resonance matches sqrt(k/m)" `Quick (fun () ->
        let m = Accel_model.build Geometry.nominal ~temp:room in
        let kxx, _, _ = Accel_model.stiffness m in
        let f_expected = sqrt (kxx /. Accel_model.mass m) /. (2.0 *. Float.pi) in
        check_close 1e-6 "f0" f_expected (Accel_model.resonance m));
    Alcotest.test_case "dc displacement is F/k" `Quick (fun () ->
        let m = Accel_model.build Geometry.nominal ~temp:room in
        let kxx, kyy, kxy = Accel_model.stiffness m in
        let x = Accel_model.displacement m ~axis:Accel_model.X_axis ~freq:0.0 ~accel:9.81 in
        let f = Accel_model.mass m *. 9.81 in
        (* 2x2 static solve *)
        let det = (kxx *. kyy) -. (kxy *. kxy) in
        let expected = kyy *. f /. det in
        check_close (Float.abs expected *. 1e-6) "static" expected x.Complex.re);
    Alcotest.test_case "nominal cross coupling cancels" `Quick (fun () ->
        let m = Accel_model.build Geometry.nominal ~temp:room in
        let kxx, _, kxy = Accel_model.stiffness m in
        Alcotest.(check bool) "kxy tiny" true (Float.abs kxy < 1e-6 *. kxx));
    Alcotest.test_case "response peaks near resonance" `Quick (fun () ->
        let m = Accel_model.build Geometry.nominal ~temp:room in
        let f0 = Accel_model.resonance m in
        let dc = Accel_model.response_mv_per_v m ~axis:Accel_model.X_axis ~freq:0.0 in
        let at_peak = Accel_model.response_mv_per_v m ~axis:Accel_model.X_axis ~freq:f0 in
        let far = Accel_model.response_mv_per_v m ~axis:Accel_model.X_axis ~freq:(10.0 *. f0) in
        Alcotest.(check bool) "peaked" true (at_peak > dc && far < dc));
    Alcotest.test_case "hot softer resonance than cold" `Quick (fun () ->
        let hot = Accel_model.build Geometry.nominal ~temp:80.0 in
        let cold = Accel_model.build Geometry.nominal ~temp:(-40.0) in
        Alcotest.(check bool) "f_hot < f_cold" true
          (Accel_model.resonance hot < Accel_model.resonance cold));
  ]

(* The 2-DOF equations of motion, state [x; y; vx; vy], integrated by
   RK4 (Ode, in this directory) under an acceleration step of [accel]
   m/s² along [axis] from rest, with the model read through its
   stiffness, mass and damping: the x-displacement waveform. It checks
   the frequency-domain solution from the time domain: the ring
   frequency is the damped resonance, the final value the static
   deflection. *)
let step_response m ~axis ~accel ~tstop ~dt =
  let kxx, kyy, kxy = Accel_model.stiffness m in
  let mass = Accel_model.mass m and b = Accel_model.damping m in
  let fx, fy =
    match axis with
    | Accel_model.X_axis -> (mass *. accel, 0.0)
    | Accel_model.Y_axis -> (0.0, mass *. accel)
  in
  let derivative _ s =
    let x = s.(0) and y = s.(1) and vx = s.(2) and vy = s.(3) in
    [|
      vx;
      vy;
      (fx -. (b *. vx) -. (kxx *. x) -. (kxy *. y)) /. mass;
      (fy -. (b *. vy) -. (kxy *. x) -. (kyy *. y)) /. mass;
    |]
  in
  let trajectory =
    Ode.integrate derivative ~t0:0.0 ~t1:tstop ~dt ~y0:[| 0.0; 0.0; 0.0; 0.0 |]
  in
  Array.map (fun (time, s) -> (time, s.(0))) trajectory

let transient_tests =
  [
    Alcotest.test_case "step response settles to static deflection" `Quick
      (fun () ->
        let m = Accel_model.build Geometry.nominal ~temp:room in
        let f0 = Accel_model.resonance m in
        let w =
          step_response m ~axis:Accel_model.X_axis ~accel:9.81
            ~tstop:(20.0 /. f0) ~dt:(1.0 /. f0 /. 200.0)
        in
        let static =
          (Accel_model.displacement m ~axis:Accel_model.X_axis ~freq:0.0
             ~accel:9.81).Complex.re
        in
        let _, final = w.(Array.length w - 1) in
        check_close (Float.abs static *. 0.01) "final = F/k" static final);
    Alcotest.test_case "ring frequency matches damped resonance" `Quick
      (fun () ->
        let m = Accel_model.build Geometry.nominal ~temp:room in
        let f0 = Accel_model.resonance m in
        let q = Accel_model.quality_estimate m in
        let zeta = 1.0 /. (2.0 *. q) in
        let fd = f0 *. sqrt (1.0 -. (zeta *. zeta)) in
        let w =
          step_response m ~axis:Accel_model.X_axis ~accel:9.81
            ~tstop:(10.0 /. f0) ~dt:(1.0 /. f0 /. 500.0)
        in
        let static =
          (Accel_model.displacement m ~axis:Accel_model.X_axis ~freq:0.0
             ~accel:9.81).Complex.re
        in
        (* period between the first two downward crossings of the final
           value gives the damped ringing frequency *)
        let crossings =
          Stc_numerics.Interp.crossings w ~level:static ~direction:`Falling
        in
        (match crossings with
         | t1 :: t2 :: _ ->
           let measured = 1.0 /. (t2 -. t1) in
           check_close (fd *. 0.02) "damped frequency" fd measured
         | _ -> Alcotest.fail "expected at least two ring crossings"));
    Alcotest.test_case "overshoot consistent with Q" `Quick (fun () ->
        let m = Accel_model.build Geometry.nominal ~temp:room in
        let f0 = Accel_model.resonance m in
        let q = Accel_model.quality_estimate m in
        let zeta = 1.0 /. (2.0 *. q) in
        let expected =
          exp (-.zeta *. Float.pi /. sqrt (1.0 -. (zeta *. zeta)))
        in
        let w =
          step_response m ~axis:Accel_model.X_axis ~accel:9.81
            ~tstop:(20.0 /. f0) ~dt:(1.0 /. f0 /. 500.0)
        in
        let static =
          (Accel_model.displacement m ~axis:Accel_model.X_axis ~freq:0.0
             ~accel:9.81).Complex.re
        in
        let peak = Array.fold_left (fun acc (_, x) -> Float.max acc x) 0.0 w in
        let overshoot = (peak -. static) /. static in
        check_close 0.02 "classic 2nd-order overshoot" expected overshoot);
    Alcotest.test_case "cross-axis step excites x through coupling" `Quick
      (fun () ->
        let g = Geometry.nominal in
        let skewed =
          {
            g with
            Geometry.springs =
              Array.mapi
                (fun i s ->
                  { s with Geometry.angle = Geometry.ideal_angles.(i) +. 0.02 })
                g.Geometry.springs;
          }
        in
        let m = Accel_model.build skewed ~temp:room in
        let f0 = Accel_model.resonance m in
        let w =
          step_response m ~axis:Accel_model.Y_axis ~accel:9.81
            ~tstop:(20.0 /. f0) ~dt:(1.0 /. f0 /. 200.0)
        in
        let _, final = w.(Array.length w - 1) in
        Alcotest.(check bool) "nonzero coupled deflection" true
          (Float.abs final > 1e-13));
  ]

let measure_tests =
  [
    Alcotest.test_case "nominal lands near Table 2" `Quick (fun () ->
        let v = Measure_mems.measure Geometry.nominal ~temp:room in
        Alcotest.(check bool) "SF 5-30" true
          (v.Measure_mems.scale_factor > 5.0 && v.Measure_mems.scale_factor < 30.0);
        Alcotest.(check bool) "fp ~5.6k" true
          (v.Measure_mems.peak_freq > 5.0 && v.Measure_mems.peak_freq < 6.2);
        Alcotest.(check bool) "Q ~2.1" true
          (v.Measure_mems.quality > 1.5 && v.Measure_mems.quality < 2.8);
        Alcotest.(check (float 0.05)) "cross ~0" 0.0 v.Measure_mems.cross_axis);
    Alcotest.test_case "tri-temperature trends" `Quick (fun () ->
        let _, cold, hot = Measure_mems.tri_temperature Geometry.nominal in
        Alcotest.(check bool) "cold peak higher" true
          (cold.Measure_mems.peak_freq > hot.Measure_mems.peak_freq);
        Alcotest.(check bool) "cold Q higher (less damping)" true
          (cold.Measure_mems.quality > hot.Measure_mems.quality));
    Alcotest.test_case "bandwidth below peak for resonant part" `Quick (fun () ->
        let v = Measure_mems.measure Geometry.nominal ~temp:room in
        Alcotest.(check bool) "bw < fp" true
          (v.Measure_mems.bandwidth < v.Measure_mems.peak_freq));
    Alcotest.test_case "skewed springs produce cross-axis signal" `Quick (fun () ->
        let g = Geometry.nominal in
        (* break the pairwise cancellation: all skews the same sign *)
        let springs =
          Array.mapi
            (fun i s ->
              { s with Geometry.angle = Geometry.ideal_angles.(i) +. 0.01 })
            g.Geometry.springs
        in
        let v = Measure_mems.measure { g with Geometry.springs } ~temp:room in
        Alcotest.(check bool) "nonzero cross" true
          (Float.abs v.Measure_mems.cross_axis > 1e-4));
    Alcotest.test_case "measurement deterministic" `Quick (fun () ->
        let a = Measure_mems.measure Geometry.nominal ~temp:room in
        let b = Measure_mems.measure Geometry.nominal ~temp:room in
        Alcotest.(check (array (float 0.0))) "identical"
          (Measure_mems.to_array a) (Measure_mems.to_array b));
  ]

(* ---------------------------- oracle ----------------------------- *)

(* Measure_mems.measure as it was before its searches halved and its
   solve left Complex, kept as the reference the fast path must match
   bit for bit: the boxed complex solve built from the model's
   accessors, all 121 points of the coarse peak grid, and linear scans
   for the +3 dB and -3 dB brackets (Test_qa.scan_bracket). *)
let reference_displacement m ~axis ~freq ~accel =
  let kxx, kyy, kxy = Accel_model.stiffness m in
  let mass = Accel_model.mass m and b = Accel_model.damping m in
  let w = 2.0 *. Float.pi *. freq in
  let diag k = { Complex.re = k -. (w *. w *. mass); im = w *. b } in
  let a11 = diag kxx and a22 = diag kyy in
  let a12 = { Complex.re = kxy; im = 0.0 } in
  let f = { Complex.re = mass *. accel; im = 0.0 } in
  let f1, f2 =
    match axis with
    | Accel_model.X_axis -> (f, Complex.zero)
    | Accel_model.Y_axis -> (Complex.zero, f)
  in
  let det = Complex.sub (Complex.mul a11 a22) (Complex.mul a12 a12) in
  Complex.div (Complex.sub (Complex.mul a22 f1) (Complex.mul a12 f2)) det

let reference_response m freq =
  let x =
    reference_displacement m ~axis:Accel_model.X_axis ~freq ~accel:Material.gravity
  in
  Accel_model.readout_mv_per_v m ~x:(Complex.norm x)

let reference_peak m ~f_lo ~f_hi =
  let h logf = reference_response m (10.0 ** logf) in
  let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
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
  let best = ref (log10 f_lo) and best_v = ref (h (log10 f_lo)) in
  let steps = 120 in
  for i = 1 to steps do
    let lf =
      log10 f_lo
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

let reference_measure geometry ~temp =
  let fail msg = raise (Measure_mems.Measurement_failed msg) in
  let m = Accel_model.build geometry ~temp in
  let sf0 = reference_response m 0.0 in
  if not (Float.is_finite sf0) || sf0 <= 0.0 then fail "degenerate scale factor";
  let cross =
    let x =
      reference_displacement m ~axis:Accel_model.Y_axis ~freq:0.0 ~accel:Material.gravity
    in
    Accel_model.readout_mv_per_v m ~x:x.Complex.re
  in
  let fp = reference_peak m ~f_lo:500.0 ~f_hi:50e3 in
  let sf_peak = reference_response m fp in
  let quality =
    let r = sf_peak /. sf0 in
    if r <= 1.0001 then Accel_model.quality_estimate m
    else begin
      let zeta2 = (1.0 -. sqrt (Float.max 0.0 (1.0 -. (1.0 /. (r *. r))))) /. 2.0 in
      1.0 /. (2.0 *. sqrt zeta2)
    end
  in
  let bandwidth =
    let plus3 f = reference_response m f -. (sf0 *. sqrt 2.0) in
    match Test_qa.scan_bracket plus3 ~lo:100.0 ~hi:fp ~steps:300 with
    | Some (a, b) -> Stc_numerics.Roots.brent plus3 a b
    | None -> (
      let minus3 f = reference_response m f -. (sf0 /. sqrt 2.0) in
      match Test_qa.scan_bracket minus3 ~lo:fp ~hi:(fp *. 20.0) ~steps:300 with
      | Some (a, b) -> Stc_numerics.Roots.brent minus3 a b
      | None -> fail "no 3-dB point")
  in
  [| sf0; cross; fp /. 1e3; quality; bandwidth /. 1e3 |]

let temperatures = [ room; -40.0; 80.0 ]

(* A draw of Experiment.mems_device ()'s parameters, moved away from
   nominal by a factor of 1, 2 or 4: the population itself, and wider
   spreads that reach the overdamped parts whose bandwidth is the
   -3 dB crossing. *)
let mems_draw =
  QCheck.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* index = int_range 0 100_000 in
    let* spread = oneofl [ 1.0; 2.0; 4.0 ] in
    let params = (Stc.Experiment.mems_device ()).Stc_process.Montecarlo.params in
    let nominal = Stc_process.Variation.nominal_values params in
    let rng = Stc_process.Montecarlo.instance_rng ~seed ~index ~attempt:0 in
    let draw = Stc_process.Variation.sample_all rng params in
    return
      (seed, index, spread, Array.mapi (fun i v -> nominal.(i) +. (spread *. (v -. nominal.(i)))) draw))

let outcome f = match f () with v -> Ok v | exception Measure_mems.Measurement_failed m -> Error m

let measure_matches_reference (_, _, _, draw) =
  let geometry = Stc.Experiment.mems_geometry_of_draw draw in
  List.for_all
    (fun temp ->
      let got = outcome (fun () -> Measure_mems.to_array (Measure_mems.measure geometry ~temp))
      and want = outcome (fun () -> reference_measure geometry ~temp) in
      match (got, want) with
      | Ok got, Ok want ->
        Array.for_all2 (fun g w -> Int64.bits_of_float g = Int64.bits_of_float w) got want
        || QCheck.Test.fail_reportf "at %g C: measure %s, reference %s" temp
             (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") got)))
             (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") want)))
      | Error g, Error w when g = w -> true
      | _ -> QCheck.Test.fail_reportf "at %g C: measure and reference disagree on failing" temp)
    temperatures

let oracle_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"measure matches the full-scan complex reference bitwise"
       ~count:300 ~long_factor:10
       (QCheck.make
          ~print:(fun (seed, index, spread, _) ->
            Printf.sprintf "seed %d, draw %d, spread %g" seed index spread)
          mems_draw)
       measure_matches_reference)

(* ----------------------------- pins ------------------------------ *)

(* All 15 raw specs (room, -40 C, 80 C) of the first 2,000 MEMS draws
   at seed 2005 (streams 0-1999, attempt 0), as the (value count, MD5,
   last value's bits) of Test_sim_pins.digest: captured on the boxed
   solve with full scans, which the fast path must keep bit for bit. *)
let population_pin = (30000, "0ec7942eca53a734d2989a1d45c8d542", 0x400befb8deb76b54L)

let population_test =
  Alcotest.test_case "MEMS specs, seed 2005's first 2,000 draws" `Quick (fun () ->
      let params = (Stc.Experiment.mems_device ()).Stc_process.Montecarlo.params in
      let values =
        Array.concat
          (List.init 2000 (fun index ->
               let rng = Stc_process.Montecarlo.instance_rng ~seed:2005 ~index ~attempt:0 in
               let draw = Stc_process.Variation.sample_all rng params in
               Stc.Experiment.mems_measure (Stc.Experiment.mems_geometry_of_draw draw)))
      in
      let count, md5, last = population_pin in
      Alcotest.(check int) "value count" count (Array.length values);
      Alcotest.(check string) "last value" (Test_sim_pins.hex_bits last)
        (Test_sim_pins.hex values.(Array.length values - 1));
      Alcotest.(check string) "all values" md5 (Test_sim_pins.digest values))

(* The minor-heap words one nominal tri-temperature instance may
   allocate, 1.25 times the 1,945 it allocated when the budget was set:
   the response allocates only its boxed argument and result, and the
   searches take about 200 responses per instance. The boxed complex
   solve and the full scans took 50,606. *)
let alloc_budget = 2_430.0

let alloc_test =
  Alcotest.test_case "one instance allocates at most 2,430 minor words" `Quick (fun () ->
      let measure () =
        ignore (Measure_mems.tri_temperature Geometry.nominal : Measure_mems.values * _ * _)
      in
      (* one warm-up call, so nothing done once per process is counted *)
      measure ();
      let w0 = Gc.minor_words () in
      measure ();
      let words = Gc.minor_words () -. w0 in
      if words > alloc_budget then
        Alcotest.failf "one instance allocated %.0f minor words, over the budget of %.0f"
          words alloc_budget)

let suites =
  [
    ("mems.material", material_tests);
    ("mems.beam", beam_tests);
    ("mems.geometry", geometry_tests);
    ("mems.model", model_tests);
    ("mems.transient", transient_tests);
    ("mems.measure", measure_tests);
    ("mems.pins", [ oracle_test; population_test; alloc_test ]);
  ]
