(* Tests for the extension modules: the regression-then-threshold
   baseline (Sec. 4.1 comparison), distribution-based adaptive guard
   banding and richer process models. *)

module Spec = Stc.Spec
module Device_data = Stc.Device_data
module Compaction = Stc.Compaction
module Metrics = Stc.Metrics
module Guard_band = Stc.Guard_band
module Regression_baseline = Stc.Regression_baseline
module Adaptive_guard = Stc.Adaptive_guard
module Variation = Stc_process.Variation
module Montecarlo = Stc_process.Montecarlo
module Process_model = Stc_process.Process_model
module Rng = Stc_numerics.Rng
module Stats = Stc_numerics.Stats

(* the synthetic redundant-spec device from test_core *)
let specs =
  [|
    Spec.make ~name:"s0" ~unit_label:"-" ~nominal:1.0 ~lower:0.5 ~upper:1.5;
    Spec.make ~name:"s1" ~unit_label:"-" ~nominal:1.0 ~lower:0.5 ~upper:1.5;
    Spec.make ~name:"s2" ~unit_label:"-" ~nominal:2.0 ~lower:1.2 ~upper:2.8;
  |]

let population seed n =
  let rng = Rng.create seed in
  let values =
    Array.init n (fun _ ->
        let a = Rng.gaussian rng ~mean:1.0 ~sigma:0.25 in
        let b = Rng.gaussian rng ~mean:1.0 ~sigma:0.25 in
        [| a; b; a +. b |])
  in
  Device_data.make ~specs ~values

let regression_tests =
  [
    Alcotest.test_case "predicts the dependent spec's value" `Quick (fun () ->
        let train = population 1 800 in
        let t = Regression_baseline.train train ~dropped:[| 2 |] in
        (* s2 = s0 + s1: check the value prediction directly *)
        let features = [| Spec.normalize specs.(0) 1.1; Spec.normalize specs.(1) 0.9 |] in
        let predicted = (Regression_baseline.predict_values t features).(0) in
        Alcotest.(check (float 0.12)) "s2 ~ 2.0" 2.0 predicted);
    Alcotest.test_case "low error on dependent spec" `Quick (fun () ->
        let train = population 1 800 and test = population 2 500 in
        let t = Regression_baseline.train train ~dropped:[| 2 |] in
        let e = Regression_baseline.prediction_error t test in
        Alcotest.(check bool) "error < 5%" true (e < 0.05));
    Alcotest.test_case "classify agrees with thresholded values" `Quick (fun () ->
        let train = population 3 500 in
        let t = Regression_baseline.train train ~dropped:[| 2 |] in
        let check features =
          let v = (Regression_baseline.predict_values t features).(0) in
          let expected = if Spec.passes specs.(2) v then 1 else -1 in
          Alcotest.(check int) "consistent" expected
            (Regression_baseline.classify t features)
        in
        check [| 0.5; 0.5 |];
        check [| 0.9; 0.9 |];
        check [| 0.1; 0.1 |]);
    Alcotest.test_case "kept/dropped bookkeeping" `Quick (fun () ->
        let train = population 4 200 in
        let t = Regression_baseline.train train ~dropped:[| 1 |] in
        Alcotest.(check (array int)) "kept" [| 0; 2 |] (Regression_baseline.kept t);
        Alcotest.(check (array int)) "dropped" [| 1 |]
          (Regression_baseline.dropped t));
    Alcotest.test_case "empty dropped rejected" `Quick (fun () ->
        let train = population 4 100 in
        (match Regression_baseline.train train ~dropped:[||] with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected Invalid_argument"));
  ]

let adaptive_tests =
  [
    Alcotest.test_case "margin is the |f| quantile" `Quick (fun () ->
        let train = population 5 600 in
        let t = Adaptive_guard.train
            ~config:{ Adaptive_guard.default_config with
                      Adaptive_guard.target_guard = 0.10 }
            train ~dropped:[| 2 |]
        in
        Alcotest.(check bool) "positive margin" true (Adaptive_guard.margin t > 0.0));
    Alcotest.test_case "guard volume tracks the target" `Quick (fun () ->
        let train = population 5 800 and test = population 6 800 in
        let run target =
          let t = Adaptive_guard.train
              ~config:{ Adaptive_guard.default_config with
                        Adaptive_guard.target_guard = target }
              train ~dropped:[| 2 |]
          in
          let counts = Compaction.evaluate_flow (Adaptive_guard.flow t) test in
          Metrics.guard_pct counts
        in
        let g5 = run 0.05 and g15 = run 0.15 in
        Alcotest.(check bool) "5% target lands 1..12%" true (g5 > 1.0 && g5 < 12.0);
        Alcotest.(check bool) "wider target guards more" true (g15 > g5));
    Alcotest.test_case "zero target degenerates cleanly" `Quick (fun () ->
        let train = population 5 400 in
        let t = Adaptive_guard.train
            ~config:{ Adaptive_guard.default_config with
                      Adaptive_guard.target_guard = 0.0 }
            train ~dropped:[| 2 |]
        in
        Alcotest.(check (float 0.0)) "margin 0" 0.0 (Adaptive_guard.margin t);
        (* with margin 0, nothing can land strictly inside the band *)
        let band = Adaptive_guard.band t in
        let v = [| 0.5; 0.5 |] in
        Alcotest.(check bool) "no guard verdict" true
          (not (Guard_band.equal_verdict (Guard_band.classify band v) Guard_band.Guard)));
    Alcotest.test_case "clearly-bad devices do not ship" `Quick (fun () ->
        (* exercised through the production path (flow_verdict): devices
           failing a *measured* kept spec are binned Bad outright; only
           in-support devices consult the model, where the adaptive
           margin flags the uncertain ones *)
        let train = population 7 800 and test = population 8 4000 in
        let t = Adaptive_guard.train train ~dropped:[| 2 |] in
        let flow = Adaptive_guard.flow t in
        let bad_total = ref 0 and shipped = ref 0 in
        for i = 0 to Device_data.n_instances test - 1 do
          let row = Device_data.instance_row test i in
          if row.(2) > 2.95 || row.(2) < 1.05 then begin
            incr bad_total;
            if
              Guard_band.equal_verdict
                (Compaction.flow_verdict flow row)
                Guard_band.Good
            then incr shipped
          end
        done;
        Alcotest.(check bool) "population has clear bads" true (!bad_total > 10);
        Alcotest.(check int) "no clear bad ships" 0 !shipped);
  ]

let toy_device =
  {
    Montecarlo.device_name = "toy";
    params =
      [|
        Variation.uniform_pct "a" 1.0 ~pct:0.10;
        Variation.uniform_pct "b" 2.0 ~pct:0.10;
        Variation.uniform_pct "c" 3.0 ~pct:0.10;
      |];
    spec_count = 2;
    simulate = (fun v -> Some [| v.(0) +. v.(1); v.(2) |]);
  }

let process_model_tests =
  [
    Alcotest.test_case "correlated draws preserve marginal spread" `Quick
      (fun () ->
        let model =
          Process_model.correlated ~params:toy_device.Montecarlo.params
            ~die_correlation:0.6
        in
        let rng = Rng.create 9 in
        let draws = Array.init 20000 (fun _ -> Process_model.draw_correlated model rng) in
        let col j = Array.map (fun d -> d.(j)) draws in
        (* uniform ±10% has sigma = 0.1/sqrt(3) * nominal *)
        let expected_sigma = 0.1 /. sqrt 3.0 in
        Alcotest.(check (float 0.005)) "sigma a" expected_sigma
          (Stats.stddev (col 0) /. 1.0);
        Alcotest.(check (float 0.01)) "sigma b" (2.0 *. expected_sigma)
          (Stats.stddev (col 1)));
    Alcotest.test_case "die correlation shows up across parameters" `Quick
      (fun () ->
        let sample rho =
          let model =
            Process_model.correlated ~params:toy_device.Montecarlo.params
              ~die_correlation:rho
          in
          let rng = Rng.create 10 in
          let draws =
            Array.init 5000 (fun _ -> Process_model.draw_correlated model rng)
          in
          Stats.correlation
            (Array.map (fun d -> d.(0)) draws)
            (Array.map (fun d -> d.(1)) draws)
        in
        let c0 = sample 0.0 and c9 = sample 0.9 in
        Alcotest.(check bool) "independent near 0" true (Float.abs c0 < 0.05);
        Alcotest.(check bool) "correlated near 0.9" true (c9 > 0.8));
    Alcotest.test_case "rho bounds validated" `Quick (fun () ->
        (match
           Process_model.correlated ~params:toy_device.Montecarlo.params
             ~die_correlation:1.5
         with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected Invalid_argument"));
    Alcotest.test_case "defect injection rate" `Quick (fun () ->
        let rng = Rng.create 11 in
        let model = { Process_model.rate = 0.3; severity = 3.0 } in
        let n = 5000 in
        let hits = ref 0 in
        for _ = 1 to n do
          let _, defective = Process_model.inject rng model [| 1.0; 1.0 |] in
          if defective then incr hits
        done;
        let rate = float_of_int !hits /. float_of_int n in
        Alcotest.(check (float 0.03)) "~30%" 0.3 rate);
    Alcotest.test_case "defect changes exactly one parameter grossly" `Quick
      (fun () ->
        let rng = Rng.create 12 in
        let model = { Process_model.rate = 1.0; severity = 3.0 } in
        let params = [| 1.0; 2.0; 4.0 |] in
        let defected, flag = Process_model.inject rng model params in
        Alcotest.(check bool) "flagged" true flag;
        let changed =
          Array.to_list (Array.mapi (fun i v -> (i, v)) defected)
          |> List.filter (fun (i, v) -> v <> params.(i))
        in
        (match changed with
         | [ (i, v) ] ->
           let ratio = v /. params.(i) in
           Alcotest.(check bool) "gross factor" true
             (Float.abs (ratio -. 3.0) < 1e-9 || Float.abs (ratio -. (1.0 /. 3.0)) < 1e-9)
         | _ -> Alcotest.fail "expected exactly one changed parameter"));
    Alcotest.test_case "zero rate never defects" `Quick (fun () ->
        let rng = Rng.create 13 in
        let model = { Process_model.rate = 0.0; severity = 2.0 } in
        for _ = 1 to 100 do
          let _, flag = Process_model.inject rng model [| 1.0 |] in
          Alcotest.(check bool) "clean" false flag
        done);
  ]

let suites =
  [
    ("ext.regression_baseline", regression_tests);
    ("ext.adaptive_guard", adaptive_tests);
    ("ext.process_model", process_model_tests);
  ]
