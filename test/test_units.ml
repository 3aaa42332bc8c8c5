(* Property-style unit tests for the small core modules the big suites
   only exercise incidentally: the cost model's arithmetic laws, the
   report renderer's layout invariants, calibration's order-preserving
   affine maps, and the adaptive guard band's margin behaviour. *)

module Spec = Stc.Spec
module Device_data = Stc.Device_data
module Compaction = Stc.Compaction
module Metrics = Stc.Metrics
module Guard_band = Stc.Guard_band
module Adaptive_guard = Stc.Adaptive_guard
module Calibration = Stc.Calibration
module Cost = Stc.Cost
module Report = Stc.Report
module Rng = Stc_numerics.Rng

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------- Cost ----------------------------- *)

let cost_tests =
  [
    qtest
      (QCheck.Test.make ~name:"tri_temperature closed forms" ~count:200
         QCheck.(triple (int_range 1 5000) (int_range 0 5000) (int_range 0 5000))
         (fun (n, room_pass, guard) ->
           QCheck.assume (room_pass <= n && guard <= n);
           let r = Cost.tri_temperature ~n ~room_pass ~guard () in
           (* full: everyone at room, room-passers again at hot and cold;
              compacted: everyone at room, guard devices at all three *)
           r.Cost.full = float_of_int (n + (2 * room_pass))
           && r.Cost.compacted = float_of_int (n + (2 * guard))));
    qtest
      (QCheck.Test.make ~name:"saving decreases as the guard band grows"
         ~count:100
         QCheck.(pair (int_range 1 1000) (int_range 0 999))
         (fun (n, g) ->
           QCheck.assume (g + 1 <= n);
           let r0 = Cost.tri_temperature ~n ~room_pass:n ~guard:g () in
           let r1 = Cost.tri_temperature ~n ~room_pass:n ~guard:(g + 1) () in
           r1.Cost.saving_pct <= r0.Cost.saving_pct));
    Alcotest.test_case "unit cost scales both flows linearly" `Quick (fun () ->
        let base = Cost.tri_temperature ~n:100 ~room_pass:80 ~guard:10 () in
        let scaled =
          Cost.tri_temperature ~unit_cost:2.5 ~n:100 ~room_pass:80 ~guard:10 ()
        in
        Alcotest.(check (float 1e-9)) "full" (2.5 *. base.Cost.full)
          scaled.Cost.full;
        Alcotest.(check (float 1e-9)) "compacted" (2.5 *. base.Cost.compacted)
          scaled.Cost.compacted;
        Alcotest.(check (float 1e-9)) "saving unchanged" base.Cost.saving_pct
          scaled.Cost.saving_pct);
    Alcotest.test_case "out-of-range counts rejected" `Quick (fun () ->
        List.iter
          (fun (n, room_pass, guard) ->
            match Cost.tri_temperature ~n ~room_pass ~guard () with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "expected Invalid_argument")
          [ (10, 11, 0); (10, 0, 11); (10, -1, 0); (10, 0, -1) ]);
    qtest
      (QCheck.Test.make ~name:"per_spec_flow conserves cost" ~count:100
         QCheck.(pair (list_of_size (Gen.int_range 1 6) (float_range 0.1 10.0))
                   (float_range 0.0 1.0))
         (fun (costs, guard_rate) ->
           let spec_costs = Array.of_list costs in
           let kept = [| 0 |] in
           let r = Cost.per_spec_flow ~spec_costs ~kept ~guard_rate in
           let close a b = Float.abs (a -. b) <= 1e-9 in
           close r.Cost.full_cost
             (Array.fold_left ( +. ) 0.0 spec_costs)
           && close r.Cost.compacted_cost spec_costs.(0)
           && close r.Cost.retest_overhead (guard_rate *. r.Cost.full_cost)
           && close r.Cost.expected_cost
                (r.Cost.compacted_cost +. r.Cost.retest_overhead)));
    Alcotest.test_case "zero guard rate means zero overhead" `Quick (fun () ->
        let r =
          Cost.per_spec_flow ~spec_costs:[| 1.0; 4.0 |] ~kept:[| 1 |]
            ~guard_rate:0.0
        in
        Alcotest.(check (float 0.0)) "overhead" 0.0 r.Cost.retest_overhead;
        Alcotest.(check (float 1e-12)) "expected = compacted"
          r.Cost.compacted_cost r.Cost.expected_cost);
  ]

(* ------------------------------ Report ---------------------------- *)

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

let report_tests =
  [
    qtest
      (QCheck.Test.make ~name:"table lines all share one width" ~count:100
         QCheck.(pair (int_range 1 5) (int_range 1 6))
         (fun (cols, rows) ->
           let header = List.init cols (fun c -> Printf.sprintf "col%d" c) in
           let cell r c = String.make (1 + ((r + c) mod 7)) 'x' in
           let body =
             List.init rows (fun r -> List.init cols (fun c -> cell r c))
           in
           let widths =
             List.map String.length (lines (Report.table ~header body))
           in
           match widths with
           | [] -> false
           | w :: rest -> List.for_all (fun w' -> w' = w) rest));
    Alcotest.test_case "series renders one row per x" `Quick (fun () ->
        let s =
          Report.series ~x_label:"n" ~x:[ "1"; "2"; "3" ]
            [ ("up", [ 1.0; 2.0; 3.0 ]); ("down", [ 3.0; 2.0; 1.0 ]) ]
        in
        (* header + separator + 3 data rows *)
        Alcotest.(check int) "rows" 5 (List.length (lines s)));
    Alcotest.test_case "pct and g3 formats" `Quick (fun () ->
        Alcotest.(check string) "pct" "12.35%" (Report.pct 12.345);
        Alcotest.(check string) "g3" "1.23" (Report.g3 1.234);
        Alcotest.(check string) "g3 sci" "1.23e+06" (Report.g3 1.234e6));
    Alcotest.test_case "ascii_plot stays inside its canvas" `Quick (fun () ->
        let rng = Rng.create 11 in
        let pts =
          Array.init 500 (fun _ ->
              (Rng.uniform rng (-5.0) 5.0, Rng.uniform rng (-2.0) 2.0))
        in
        let ls = lines (Report.ascii_plot ~width:30 ~height:12 pts) in
        Alcotest.(check bool) "height bounded" true (List.length ls <= 14);
        List.iter
          (fun l ->
            Alcotest.(check bool) "width bounded" true (String.length l <= 34))
          ls);
  ]

(* ---------------------------- Calibration ------------------------- *)

let calibration_tests =
  [
    qtest
      (QCheck.Test.make ~name:"fit maps measured nominal onto target"
         ~count:200
         QCheck.(pair (float_range 0.5 1000.0) (float_range 0.5 1000.0))
         (fun (measured, target) ->
           let c = Calibration.fit ~measured_nominal:measured ~target_nominal:target in
           Float.abs (Calibration.apply c measured -. target)
           <= 1e-9 *. Float.max 1.0 (Float.abs target)));
    qtest
      (QCheck.Test.make ~name:"apply preserves order (monotone affine)"
         ~count:200
         QCheck.(pair (pair (float_range (-100.0) 100.0) (float_range (-100.0) 100.0))
                   (float_range 0.5 50.0))
         (fun ((a, b), nominal) ->
           let c = Calibration.fit ~measured_nominal:nominal ~target_nominal:7.0 in
           compare a b = compare (Calibration.apply c a) (Calibration.apply c b)));
    Alcotest.test_case "apply_all checks lengths" `Quick (fun () ->
        match
          Calibration.apply_all
            [| Calibration.fit ~measured_nominal:1.0 ~target_nominal:1.0 |]
            [| 1.0; 2.0 |]
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

(* --------------------------- Adaptive_guard ----------------------- *)

(* the synthetic redundant-spec device shared with test_extensions *)
let ag_specs =
  [|
    Spec.make ~name:"s0" ~unit_label:"-" ~nominal:1.0 ~lower:0.5 ~upper:1.5;
    Spec.make ~name:"s1" ~unit_label:"-" ~nominal:1.0 ~lower:0.5 ~upper:1.5;
    Spec.make ~name:"s2" ~unit_label:"-" ~nominal:2.0 ~lower:1.2 ~upper:2.8;
  |]

let ag_population seed n =
  let rng = Rng.create seed in
  let values =
    Array.init n (fun _ ->
        let a = Rng.gaussian rng ~mean:1.0 ~sigma:0.25 in
        let b = Rng.gaussian rng ~mean:1.0 ~sigma:0.25 in
        [| a; b; a +. b |])
  in
  Device_data.make ~specs:ag_specs ~values

let adaptive_guard_tests =
  [
    Alcotest.test_case "margin grows with the guard target" `Quick (fun () ->
        let train = ag_population 21 600 in
        let margin target =
          Adaptive_guard.margin
            (Adaptive_guard.train
               ~config:
                 { Adaptive_guard.default_config with
                   Adaptive_guard.target_guard = target }
               train ~dropped:[| 2 |])
        in
        let m2 = margin 0.02 and m10 = margin 0.10 and m25 = margin 0.25 in
        Alcotest.(check bool) "monotone" true (m2 <= m10 && m10 <= m25));
    Alcotest.test_case "band verdicts partition by decision value" `Quick
      (fun () ->
        let train = ag_population 22 600 in
        let t =
          Adaptive_guard.train
            ~config:
              { Adaptive_guard.default_config with
                Adaptive_guard.target_guard = 0.10 }
            train ~dropped:[| 2 |]
        in
        let band = Adaptive_guard.band t in
        let rng = Rng.create 23 in
        let seen_good = ref false and seen_other = ref false in
        for _ = 1 to 200 do
          let v =
            [| Rng.uniform rng 0.3 1.7; Rng.uniform rng 0.3 1.7 |]
          in
          match Guard_band.classify band v with
          | Guard_band.Good -> seen_good := true
          | Guard_band.Bad | Guard_band.Guard -> seen_other := true
        done;
        Alcotest.(check bool) "both sides reachable" true
          (!seen_good && !seen_other));
    Alcotest.test_case "flow records the dropped specs" `Quick (fun () ->
        let train = ag_population 24 400 in
        let t = Adaptive_guard.train train ~dropped:[| 2 |] in
        let flow = Adaptive_guard.flow t in
        Alcotest.(check (array int)) "dropped" [| 2 |]
          flow.Compaction.dropped;
        Alcotest.(check (array int)) "kept" [| 0; 1 |] flow.Compaction.kept);
    Alcotest.test_case "flow verdicts stay consistent on a fresh population"
      `Quick (fun () ->
        let train = ag_population 25 800 and test = ag_population 26 500 in
        let t =
          Adaptive_guard.train
            ~config:
              { Adaptive_guard.default_config with
                Adaptive_guard.target_guard = 0.05 }
            train ~dropped:[| 2 |]
        in
        let counts = Compaction.evaluate_flow (Adaptive_guard.flow t) test in
        (* sanity: the adaptive flow neither ships everything nor guards
           everything, and error stays small on redundant data *)
        Alcotest.(check bool) "guard sane" true
          (Metrics.guard_pct counts < 30.0);
        Alcotest.(check bool) "escape small" true
          (Metrics.escape_pct counts < 5.0));
  ]

let suites =
  [
    ("units: cost model", cost_tests);
    ("units: report rendering", report_tests);
    ("units: calibration", calibration_tests);
    ("units: adaptive guard", adaptive_guard_tests);
  ]
