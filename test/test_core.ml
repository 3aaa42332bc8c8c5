(* Tests for the stc core library: specs, data handling, guard banding,
   grid compaction, orderings, cost model and the compaction loop itself
   on synthetic devices with known structure. *)

module Spec = Stc.Spec
module Device_data = Stc.Device_data
module Calibration = Stc.Calibration
module Guard_band = Stc.Guard_band
module Metrics = Stc.Metrics
module Grid_compact = Stc.Grid_compact
module Order = Stc.Order
module Cost = Stc.Cost
module Compaction = Stc.Compaction
module Report = Stc.Report
module Rng = Stc_numerics.Rng

let check_close tol = Alcotest.(check (float tol))

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------ Spec ------------------------------ *)

let demo_spec = Spec.make ~name:"s" ~unit_label:"V" ~nominal:1.0 ~lower:0.5 ~upper:2.0

let spec_tests =
  [
    Alcotest.test_case "within is inclusive" `Quick (fun () ->
        Alcotest.(check bool) "lower" true (Spec.passes demo_spec 0.5);
        Alcotest.(check bool) "upper" true (Spec.passes demo_spec 2.0);
        Alcotest.(check bool) "below" false (Spec.passes demo_spec 0.49);
        Alcotest.(check bool) "above" false (Spec.passes demo_spec 2.01));
    Alcotest.test_case "normalize endpoints" `Quick (fun () ->
        check_close 1e-12 "lower->0" 0.0 (Spec.normalize demo_spec 0.5);
        check_close 1e-12 "upper->1" 1.0 (Spec.normalize demo_spec 2.0));
    Alcotest.test_case "perturb moves boundaries relative to magnitude" `Quick
      (fun () ->
        let wide = Spec.perturb demo_spec ~fraction:0.1 in
        check_close 1e-12 "lower out" 0.45 wide.Spec.range.Spec.lower;
        check_close 1e-12 "upper out" 2.2 wide.Spec.range.Spec.upper;
        let tight = Spec.perturb demo_spec ~fraction:(-0.1) in
        check_close 1e-12 "lower in" 0.55 tight.Spec.range.Spec.lower;
        check_close 1e-12 "upper in" 1.8 tight.Spec.range.Spec.upper);
    Alcotest.test_case "zero boundary does not move" `Quick (fun () ->
        let s = Spec.make ~name:"z" ~unit_label:"-" ~nominal:0.2 ~lower:0.0 ~upper:1.0 in
        let wide = Spec.perturb s ~fraction:0.1 in
        check_close 0.0 "lower fixed" 0.0 wide.Spec.range.Spec.lower);
    Alcotest.test_case "collapsing perturbation rejected" `Quick (fun () ->
        let s = Spec.make ~name:"n" ~unit_label:"-" ~nominal:1.0 ~lower:0.9 ~upper:1.1 in
        (match Spec.perturb s ~fraction:(-0.5) with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected collapse"));
    Alcotest.test_case "invalid range rejected" `Quick (fun () ->
        (match Spec.make ~name:"bad" ~unit_label:"-" ~nominal:0.0 ~lower:1.0 ~upper:1.0 with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected Invalid_argument"));
    qtest
      (QCheck.Test.make ~name:"normalize/denormalize round trip" ~count:200
         QCheck.(float_range (-10.) 10.)
         (fun v ->
           let u = Spec.normalize demo_spec v in
           Float.abs (Spec.denormalize demo_spec u -. v) <= 1e-9));
    qtest
      (QCheck.Test.make ~name:"pass iff normalized in [0,1]" ~count:200
         QCheck.(float_range (-10.) 10.)
         (fun v ->
           let u = Spec.normalize demo_spec v in
           Spec.passes demo_spec v = (u >= 0.0 && u <= 1.0)));
    qtest
      (QCheck.Test.make ~name:"widened range accepts nominal passes" ~count:200
         QCheck.(float_range 0.5 2.0)
         (fun v ->
           Spec.passes (Spec.perturb demo_spec ~fraction:0.05) v));
  ]

(* --------------------------- Device_data -------------------------- *)

let three_specs =
  [|
    Spec.make ~name:"a" ~unit_label:"-" ~nominal:1.0 ~lower:0.0 ~upper:2.0;
    Spec.make ~name:"b" ~unit_label:"-" ~nominal:1.0 ~lower:0.0 ~upper:2.0;
    Spec.make ~name:"c" ~unit_label:"-" ~nominal:2.0 ~lower:0.5 ~upper:3.5;
  |]

let small_data =
  Device_data.make ~specs:three_specs
    ~values:
      [|
        [| 1.0; 1.0; 2.0 |];  (* good *)
        [| 2.5; 1.0; 3.5 |];  (* fails a *)
        [| 1.0; 1.0; 4.0 |];  (* fails c *)
        [| 0.5; 0.5; 1.0 |];  (* good *)
      |]

let device_data_tests =
  [
    Alcotest.test_case "yield fraction" `Quick (fun () ->
        check_close 1e-12 "2/4" 0.5 (Device_data.yield_fraction small_data));
    Alcotest.test_case "pass labels for subsets" `Quick (fun () ->
        Alcotest.(check (array int)) "subset {c}" [| 1; 1; -1; 1 |]
          (Device_data.pass_labels small_data ~subset:[| 2 |]);
        Alcotest.(check (array int)) "subset {a}" [| 1; -1; 1; 1 |]
          (Device_data.pass_labels small_data ~subset:[| 0 |]);
        Alcotest.(check (array int)) "all" [| 1; -1; -1; 1 |]
          (Device_data.pass_labels small_data ~subset:[| 0; 1; 2 |]));
    Alcotest.test_case "normalized features select columns" `Quick (fun () ->
        let row = Device_data.normalized_row small_data ~instance:0 ~keep:[| 0; 2 |] in
        check_close 1e-12 "a normalized" 0.5 row.(0);
        check_close 1e-12 "c normalized" 0.5 row.(1));
    Alcotest.test_case "ragged rows rejected" `Quick (fun () ->
        (match Device_data.make ~specs:three_specs ~values:[| [| 1.0 |] |] with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected Invalid_argument"));
    Alcotest.test_case "spec_column" `Quick (fun () ->
        Alcotest.(check (array (float 0.0))) "col c" [| 2.0; 3.5; 4.0; 1.0 |]
          (Device_data.spec_column small_data 2));
    Alcotest.test_case "kept rejects a bad or repeated index" `Quick (fun () ->
        Alcotest.(check (array int)) "kept" [| 1 |]
          (Device_data.kept small_data ~dropped:[| 2; 0 |]);
        List.iter
          (fun dropped ->
            match Device_data.kept small_data ~dropped with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "expected Invalid_argument")
          [ [| 3 |]; [| -1 |]; [| 1; 1 |] ]);
  ]

(* --------------------------- Calibration -------------------------- *)

let calibration_tests =
  [
    Alcotest.test_case "scale maps nominal exactly" `Quick (fun () ->
        let c = Calibration.fit ~measured_nominal:24376.0 ~target_nominal:14000.0 in
        check_close 1e-6 "nominal" 14000.0 (Calibration.apply c 24376.0);
        check_close 1e-6 "proportional" 7000.0 (Calibration.apply c 12188.0));
    Alcotest.test_case "scale falls back on zero nominal" `Quick (fun () ->
        let c = Calibration.fit ~measured_nominal:0.0 ~target_nominal:0.0 in
        check_close 1e-12 "identity-ish" 0.3 (Calibration.apply c 0.3));
    Alcotest.test_case "apply_all element-wise" `Quick (fun () ->
        let cs =
          [|
            Calibration.fit ~measured_nominal:2.0 ~target_nominal:1.0;
            Calibration.fit ~measured_nominal:1.0 ~target_nominal:1.0;
          |]
        in
        Alcotest.(check (array (float 1e-12))) "mapped" [| 2.0; 5.0 |]
          (Calibration.apply_all cs [| 4.0; 5.0 |]));
  ]

(* --------------------------- Guard band --------------------------- *)

let guard_band_tests =
  [
    Alcotest.test_case "agreement and disagreement" `Quick (fun () ->
        let band =
          Guard_band.make
            ~tight:(fun v -> if v.(0) > 0.6 then 1 else -1)
            ~loose:(fun v -> if v.(0) > 0.4 then 1 else -1)
        in
        Alcotest.(check string) "good" "good"
          (Guard_band.verdict_to_string (Guard_band.classify band [| 0.8 |]));
        Alcotest.(check string) "bad" "bad"
          (Guard_band.verdict_to_string (Guard_band.classify band [| 0.2 |]));
        Alcotest.(check string) "guard" "guard"
          (Guard_band.verdict_to_string (Guard_band.classify band [| 0.5 |])));
    Alcotest.test_case "single never guards" `Quick (fun () ->
        let band = Guard_band.single (fun v -> if v.(0) > 0.5 then 1 else -1) in
        Alcotest.(check bool) "never guard" true
          (List.for_all
             (fun x ->
               not
                 (Guard_band.equal_verdict
                    (Guard_band.classify band [| x |])
                    Guard_band.Guard))
             [ 0.0; 0.25; 0.5; 0.75; 1.0 ]));
  ]

(* ----------------------------- Metrics ---------------------------- *)

let metrics_tests =
  [
    Alcotest.test_case "tally percentages" `Quick (fun () ->
        let truth = [| true; true; false; false; true |] in
        let verdicts =
          [| Guard_band.Good; Guard_band.Bad; Guard_band.Good; Guard_band.Bad;
             Guard_band.Guard |]
        in
        let c = Metrics.tally ~truth ~verdicts in
        check_close 1e-9 "escape 1/5" 20.0 (Metrics.escape_pct c);
        check_close 1e-9 "loss 1/5" 20.0 (Metrics.loss_pct c);
        check_close 1e-9 "guard 1/5" 20.0 (Metrics.guard_pct c);
        check_close 1e-9 "yield 3/5" 60.0 (Metrics.yield_pct c);
        check_close 1e-9 "err 2/5" 40.0 (Metrics.prediction_error_pct c));
    Alcotest.test_case "empty tally" `Quick (fun () ->
        let c = Metrics.tally ~truth:[||] ~verdicts:[||] in
        check_close 0.0 "escape" 0.0 (Metrics.escape_pct c));
  ]

(* --------------------------- Grid compact ------------------------- *)

let grid_tests =
  [
    Alcotest.test_case "pure cells merge, mixed cells keep" `Quick (fun () ->
        (* resolution 2 over [0,1]: cell (0,0) mixed, cell (1,1) pure *)
        let config = { Grid_compact.resolution = 2; clip_lo = 0.0; clip_hi = 1.0 } in
        let features =
          [| [| 0.1; 0.1 |]; [| 0.2; 0.2 |]; [| 0.9; 0.9 |]; [| 0.8; 0.8 |] |]
        in
        let labels = [| 1; -1; 1; 1 |] in
        let r = Grid_compact.compact ~config ~features ~labels () in
        Alcotest.(check int) "kept originals" 2 r.Grid_compact.kept_original;
        Alcotest.(check int) "merged cells" 1 r.Grid_compact.merged_cells;
        Alcotest.(check int) "total rows" 3 (Array.length r.Grid_compact.features));
    Alcotest.test_case "merged point is cell centre" `Quick (fun () ->
        let config = { Grid_compact.resolution = 2; clip_lo = 0.0; clip_hi = 1.0 } in
        let r =
          Grid_compact.compact ~config ~features:[| [| 0.9 |] |] ~labels:[| 1 |] ()
        in
        check_close 1e-12 "centre" 0.75 r.Grid_compact.features.(0).(0);
        Alcotest.(check int) "label" 1 r.Grid_compact.labels.(0));
    Alcotest.test_case "empty input" `Quick (fun () ->
        let r = Grid_compact.compact ~features:[||] ~labels:[||] () in
        Alcotest.(check int) "rows" 0 (Array.length r.Grid_compact.features));
    qtest
      (QCheck.Test.make ~name:"output never larger than input + cells" ~count:50
         QCheck.(int_range 0 10000)
         (fun seed ->
           let rng = Rng.create seed in
           let n = 5 + Rng.int rng 200 in
           let features =
             Array.init n (fun _ -> [| Rng.float rng; Rng.float rng |])
           in
           let labels = Array.init n (fun _ -> if Rng.bool rng then 1 else -1) in
           let r = Grid_compact.compact ~features ~labels () in
           Array.length r.Grid_compact.features <= n + r.Grid_compact.merged_cells
           && Array.length r.Grid_compact.features
              = Array.length r.Grid_compact.labels));
    qtest
      (QCheck.Test.make ~name:"single-class data collapses to cells" ~count:30
         QCheck.(int_range 0 10000)
         (fun seed ->
           let rng = Rng.create seed in
           let n = 20 + Rng.int rng 100 in
           let features =
             Array.init n (fun _ -> [| Rng.float rng; Rng.float rng |])
           in
           let labels = Array.make n 1 in
           let r = Grid_compact.compact ~features ~labels () in
           r.Grid_compact.kept_original = 0
           && Array.for_all (fun l -> l = 1) r.Grid_compact.labels));
  ]

(* ------------------------------ Order ----------------------------- *)

let order_tests =
  [
    Alcotest.test_case "failure counts" `Quick (fun () ->
        Alcotest.(check (array int)) "counts" [| 1; 0; 1 |]
          (Order.failure_counts small_data));
    Alcotest.test_case "by_failure_count sorts ascending" `Quick (fun () ->
        let order = Order.compute Order.By_failure_count small_data in
        Alcotest.(check int) "first is b (0 fails)" 1 order.(0));
    Alcotest.test_case "given order validated" `Quick (fun () ->
        (match Order.compute (Order.Given [| 0; 0; 1 |]) small_data with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected rejection of non-permutation"));
    Alcotest.test_case "correlation order puts correlated first" `Quick (fun () ->
        (* build data where spec2 = spec0 exactly, spec1 independent *)
        let rng = Rng.create 3 in
        let values =
          Array.init 100 (fun _ ->
              let a = Rng.float rng and b = Rng.float rng in
              [| a; b; a |])
        in
        let specs =
          Array.init 3 (fun i ->
              Spec.make ~name:(string_of_int i) ~unit_label:"-" ~nominal:0.5
                ~lower:0.0 ~upper:1.0)
        in
        let data = Device_data.make ~specs ~values in
        let order = Order.compute Order.By_correlation data in
        Alcotest.(check bool) "spec1 comes last" true (order.(2) = 1));
    qtest
      (QCheck.Test.make ~name:"computed orders are permutations" ~count:20
         QCheck.(int_range 0 1000)
         (fun seed ->
           let rng = Rng.create seed in
           let values =
             Array.init 30 (fun _ -> Array.init 3 (fun _ -> Rng.float rng))
           in
           let data = Device_data.make ~specs:three_specs ~values in
           List.for_all
             (fun strategy ->
               let order = Order.compute strategy data in
               let sorted = Array.copy order in
               Array.sort compare sorted;
               sorted = [| 0; 1; 2 |])
             [ Order.By_failure_count; Order.By_correlation ]));
  ]

(* ------------------------------- Cost ----------------------------- *)

let cost_tests =
  [
    Alcotest.test_case "paper's Sec 5.2 dollar arithmetic" `Quick (fun () ->
        (* 1000 devices, 774 pass room, 84 in guard band *)
        let r = Cost.tri_temperature ~n:1000 ~room_pass:774 ~guard:84 () in
        check_close 1e-9 "full $2548" 2548.0 r.Cost.full;
        check_close 1e-9 "compacted $1168" 1168.0 r.Cost.compacted;
        Alcotest.(check bool) "saving ~54%" true
          (r.Cost.saving_pct > 54.0 && r.Cost.saving_pct < 54.5));
    Alcotest.test_case "zero guard maximises saving" `Quick (fun () ->
        let r0 = Cost.tri_temperature ~n:100 ~room_pass:80 ~guard:0 () in
        let r1 = Cost.tri_temperature ~n:100 ~room_pass:80 ~guard:50 () in
        Alcotest.(check bool) "monotone" true (r0.Cost.saving_pct > r1.Cost.saving_pct));
    Alcotest.test_case "inconsistent counts rejected" `Quick (fun () ->
        (match Cost.tri_temperature ~n:10 ~room_pass:11 ~guard:0 () with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected Invalid_argument"));
    Alcotest.test_case "per-spec flow accounting" `Quick (fun () ->
        let r =
          Cost.per_spec_flow ~spec_costs:[| 1.0; 2.0; 3.0 |] ~kept:[| 0 |]
            ~guard_rate:0.1
        in
        check_close 1e-12 "full" 6.0 r.Cost.full_cost;
        check_close 1e-12 "compacted" 1.0 r.Cost.compacted_cost;
        check_close 1e-12 "overhead" 0.6 r.Cost.retest_overhead;
        check_close 1e-9 "saving" (1.0 -. (1.6 /. 6.0)) r.Cost.saving_fraction);
  ]

(* ---------------------------- Compaction --------------------------- *)

(* Synthetic device with a known redundancy: s2 = s0 + s1 exactly, so
   the test for s2 is informationally redundant given s0 and s1. A
   fourth spec s3 is independent noise, hence NOT predictable. *)
let synthetic_specs =
  [|
    Spec.make ~name:"s0" ~unit_label:"-" ~nominal:1.0 ~lower:0.5 ~upper:1.5;
    Spec.make ~name:"s1" ~unit_label:"-" ~nominal:1.0 ~lower:0.5 ~upper:1.5;
    Spec.make ~name:"s2" ~unit_label:"-" ~nominal:2.0 ~lower:1.2 ~upper:2.8;
    Spec.make ~name:"s3" ~unit_label:"-" ~nominal:0.0 ~lower:(-1.0) ~upper:1.0;
  |]

let synthetic_data seed n =
  let rng = Rng.create seed in
  let values =
    Array.init n (fun _ ->
        let a = Rng.gaussian rng ~mean:1.0 ~sigma:0.25 in
        let b = Rng.gaussian rng ~mean:1.0 ~sigma:0.25 in
        let noise = Rng.gaussian rng ~mean:0.0 ~sigma:0.6 in
        [| a; b; a +. b; noise |])
  in
  Device_data.make ~specs:synthetic_specs ~values

let compaction_config =
  {
    Compaction.default_config with
    Compaction.tolerance = 0.02;
    guard_fraction = 0.02;
  }

let compaction_tests =
  [
    Alcotest.test_case "identity flow has no error" `Quick (fun () ->
        let data = synthetic_data 1 300 in
        let flow = Compaction.identity_flow synthetic_specs in
        let c = Compaction.evaluate_flow flow data in
        check_close 0.0 "escape" 0.0 (Metrics.escape_pct c);
        check_close 0.0 "loss" 0.0 (Metrics.loss_pct c);
        check_close 0.0 "guard" 0.0 (Metrics.guard_pct c));
    Alcotest.test_case "dependent spec is predictable" `Quick (fun () ->
        let train = synthetic_data 2 500 and test = synthetic_data 3 300 in
        let band, nominal =
          Compaction.train_predictor compaction_config train ~dropped:[| 2 |]
        in
        ignore band;
        let e =
          Compaction.prediction_error nominal test ~kept:[| 0; 1; 3 |]
            ~dropped:[| 2 |]
        in
        Alcotest.(check bool) "error < 3%" true (e < 0.03));
    Alcotest.test_case "independent spec is not predictable" `Quick (fun () ->
        let train = synthetic_data 2 500 and test = synthetic_data 3 300 in
        let _, nominal =
          Compaction.train_predictor compaction_config train ~dropped:[| 3 |]
        in
        let e =
          Compaction.prediction_error nominal test ~kept:[| 0; 1; 2 |]
            ~dropped:[| 3 |]
        in
        Alcotest.(check bool) "error > 5%" true (e > 0.05));
    Alcotest.test_case "greedy drops s2 and keeps s3" `Quick (fun () ->
        let train = synthetic_data 4 500 and test = synthetic_data 5 300 in
        let result = Compaction.greedy compaction_config ~train ~test in
        let dropped = Array.to_list result.Compaction.flow.Compaction.dropped in
        Alcotest.(check bool) "s2 dropped" true (List.mem 2 dropped);
        Alcotest.(check bool) "s3 kept" true (not (List.mem 3 dropped)));
    Alcotest.test_case "zero tolerance drops nothing unpredictable" `Quick
      (fun () ->
        let train = synthetic_data 4 400 and test = synthetic_data 5 200 in
        let config = { compaction_config with Compaction.tolerance = -1.0 } in
        let result = Compaction.greedy config ~train ~test in
        Alcotest.(check int) "nothing dropped" 0
          (Array.length result.Compaction.flow.Compaction.dropped));
    Alcotest.test_case "flow error stays below tolerance on test" `Quick
      (fun () ->
        let train = synthetic_data 6 600 and test = synthetic_data 7 400 in
        let result = Compaction.greedy compaction_config ~train ~test in
        let c = Compaction.evaluate_flow result.Compaction.flow test in
        (* guard-banded flow errors should not exceed the nominal-model
           tolerance by much *)
        Alcotest.(check bool) "escape+loss < 5%" true
          (Metrics.prediction_error_pct c < 5.0));
    Alcotest.test_case "steps cover every spec exactly once" `Quick (fun () ->
        let train = synthetic_data 4 300 and test = synthetic_data 5 200 in
        let result = Compaction.greedy compaction_config ~train ~test in
        let indices =
          List.map (fun s -> s.Compaction.spec_index) result.Compaction.steps
        in
        Alcotest.(check (list int)) "permutation" [ 0; 1; 2; 3 ]
          (List.sort compare indices));
    Alcotest.test_case "eliminate respects explicit drop set" `Quick (fun () ->
        let train = synthetic_data 8 400 and test = synthetic_data 9 300 in
        let counts, flow =
          Compaction.eliminate compaction_config ~train ~test ~dropped:[| 2 |]
        in
        Alcotest.(check (array int)) "kept" [| 0; 1; 3 |] flow.Compaction.kept;
        Alcotest.(check bool) "small error" true
          (Metrics.prediction_error_pct counts < 4.0));
    Alcotest.test_case "verdict reads only kept columns" `Quick (fun () ->
        let train = synthetic_data 8 400 in
        let flow = Compaction.make_flow compaction_config train ~dropped:[| 2 |] in
        let row_a = [| 1.0; 1.0; 2.0; 0.0 |] in
        let row_b = [| 1.0; 1.0; 999.0; 0.0 |] in
        (* s2 differs wildly but is not measured: same verdict *)
        Alcotest.(check bool) "same verdict" true
          (Guard_band.equal_verdict
             (Compaction.flow_verdict flow row_a)
             (Compaction.flow_verdict flow row_b)));
    Alcotest.test_case "make_flow trains only the guard band's pair" `Quick
      (fun () ->
        let train = synthetic_data 8 300 in
        let solves = Stc_obs.Registry.counter "stc_smo_solves_total" in
        let before = Stc_obs.Registry.Counter.get solves in
        let flow = Compaction.make_flow compaction_config train ~dropped:[| 2 |] in
        Alcotest.(check int) "SMO solves" 2
          (Stc_obs.Registry.Counter.get solves - before);
        let band, _ =
          Compaction.train_predictor compaction_config train ~dropped:[| 2 |]
        in
        let text f =
          match Stc_floor.Flow_io.to_string f with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        Alcotest.(check string) "same flow bytes"
          (text { flow with Compaction.band = Some band })
          (text flow));
    Alcotest.test_case "each candidate trains on its trial set alone" `Quick
      (fun () ->
        (* a step's error and SMO work are those of a fresh train on its
           trial set, whatever the loop trained before it: what lets
           candidates be evaluated out of order *)
        let train, test =
          Stc.Experiment.generate_opamp ~seed:701 ~n_train:160 ~n_test:80 ()
        in
        let config =
          { Stc.Experiment.opamp_config with Compaction.guard_fraction = 0.0 }
        in
        let iterations = Stc_obs.Registry.counter "stc_smo_iterations_total" in
        let counted f =
          let before = Stc_obs.Registry.Counter.get iterations in
          let r = f () in
          (r, Stc_obs.Registry.Counter.get iterations - before)
        in
        let result, loop_iterations =
          counted (fun () ->
              Compaction.greedy
                ~order:(Order.Given Stc.Experiment.opamp_examination_order)
                config ~train ~test)
        in
        let dropped = ref [] and reference_iterations = ref 0 in
        List.iter
          (fun (s : Compaction.step) ->
            let spec = s.Compaction.spec_index in
            let trial = Array.of_list (List.rev (spec :: !dropped)) in
            let (_, nominal), n =
              counted (fun () ->
                  Compaction.train_predictor config train ~dropped:trial)
            in
            reference_iterations := !reference_iterations + n;
            let error =
              Compaction.prediction_error nominal test
                ~kept:(Device_data.kept train ~dropped:trial) ~dropped:trial
            in
            Alcotest.(check int64)
              (Printf.sprintf "spec %d: error bits" spec)
              (Int64.bits_of_float error)
              (Int64.bits_of_float s.Compaction.error);
            if s.Compaction.accepted then dropped := spec :: !dropped)
          result.Compaction.steps;
        let _, final =
          counted (fun () ->
              Compaction.make_flow config train
                ~dropped:result.Compaction.flow.Compaction.dropped)
        in
        Alcotest.(check int) "SMO iterations: reference trains + final flow"
          (!reference_iterations + final)
          loop_iterations);
    Alcotest.test_case "duplicate dropped index rejected" `Quick (fun () ->
        let train = synthetic_data 8 100 in
        (match Compaction.make_flow compaction_config train ~dropped:[| 2; 2 |] with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected Invalid_argument"));
    Alcotest.test_case "grid compaction preserves accuracy" `Quick (fun () ->
        let train = synthetic_data 10 600 and test = synthetic_data 11 300 in
        let with_grid =
          { compaction_config with Compaction.grid = Some Grid_compact.default_config }
        in
        let _, nominal = Compaction.train_predictor with_grid train ~dropped:[| 2 |] in
        let e =
          Compaction.prediction_error nominal test ~kept:[| 0; 1; 3 |] ~dropped:[| 2 |]
        in
        Alcotest.(check bool) "error < 5%" true (e < 0.05));
  ]

(* ------------------------------ Report ---------------------------- *)

let report_tests =
  [
    Alcotest.test_case "table renders aligned" `Quick (fun () ->
        let s = Report.table ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "33"; "4" ] ] in
        Alcotest.(check bool) "has rule" true (String.length s > 0);
        Alcotest.(check bool) "rows present" true
          (String.split_on_char '\n' s |> List.length >= 4));
    Alcotest.test_case "table arity mismatch rejected" `Quick (fun () ->
        (match Report.table ~header:[ "a" ] [ [ "1"; "2" ] ] with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected Invalid_argument"));
    Alcotest.test_case "series length mismatch rejected" `Quick (fun () ->
        (match Report.series ~x_label:"x" ~x:[ "1" ] [ ("c", [ 1.0; 2.0 ]) ] with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected Invalid_argument"));
    Alcotest.test_case "pct formatting" `Quick (fun () ->
        Alcotest.(check string) "fmt" "0.60%" (Report.pct 0.6));
    Alcotest.test_case "ascii plot dimensions" `Quick (fun () ->
        let points = Array.init 100 (fun i -> (float_of_int i, sin (float_of_int i))) in
        let s = Report.ascii_plot ~width:40 ~height:10 points in
        let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
        Alcotest.(check int) "height" 10 (List.length lines));
  ]

let suites =
  [
    ("core.spec", spec_tests);
    ("core.device_data", device_data_tests);
    ("core.calibration", calibration_tests);
    ("core.guard_band", guard_band_tests);
    ("core.metrics", metrics_tests);
    ("core.grid_compact", grid_tests);
    ("core.order", order_tests);
    ("core.cost", cost_tests);
    ("core.compaction", compaction_tests);
    ("core.report", report_tests);
  ]
