(* Second-round coverage: transient breakpoints, experiment wiring, and
   API edge cases not covered by the per-module suites. *)

module Netlist = Stc_circuit.Netlist
module Wave = Stc_circuit.Wave
module Mna = Stc_circuit.Mna
module Dc = Stc_circuit.Dc
module Ac = Stc_circuit.Ac
module Tran = Stc_circuit.Tran
module Waveform = Stc_circuit.Waveform
module Experiment = Stc.Experiment
module Compaction = Stc.Compaction
module Spec = Stc.Spec
module Variation = Stc_process.Variation
module Montecarlo = Stc_process.Montecarlo
module Rng = Stc_numerics.Rng

let check_close tol = Alcotest.(check (float tol))

let rc_step r c =
  let step =
    Wave.Pulse
      { v1 = 0.0; v2 = 1.0; delay = 0.0; rise = 1e-9; fall = 1e-9;
        width = 1.0; period = 0.0 }
  in
  Netlist.of_elements
    [
      Netlist.vwave "vin" "in" "0" step;
      Netlist.r "r1" "in" "out" r;
      Netlist.c "c1" "out" "0" c;
    ]

let tran_option_tests =
  [
    Alcotest.test_case "time steps land on breakpoints" `Quick (fun () ->
        let step =
          Wave.Pulse
            { v1 = 0.0; v2 = 1.0; delay = 3.3e-4; rise = 1e-5; fall = 1e-5;
              width = 1.0; period = 0.0 }
        in
        let sys =
          Mna.build
            (Netlist.of_elements
               [
                 Netlist.vwave "vin" "in" "0" step;
                 Netlist.r "r1" "in" "out" 1000.0;
                 Netlist.c "c1" "out" "0" 1e-6;
               ])
        in
        let result = Tran.run sys ~tstop:1e-3 ~dt:1e-4 in
        Alcotest.(check bool) "3.3e-4 is a sample" true
          (Array.exists (fun t -> Float.abs (t -. 3.3e-4) < 1e-12) result.Tran.times));
    Alcotest.test_case "invalid tstop rejected" `Quick (fun () ->
        let sys = Mna.build (rc_step 1000.0 1e-6) in
        (match Tran.run sys ~tstop:(-1.0) ~dt:1e-5 with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected Invalid_argument"));
  ]

let ac_helper_tests =
  [
    Alcotest.test_case "db and phase helpers" `Quick (fun () ->
        check_close 1e-9 "20dB" 20.0 (Ac.db { Complex.re = 10.0; im = 0.0 });
        Alcotest.(check bool) "zero is -inf" true
          (Ac.db Complex.zero = Float.neg_infinity);
        check_close 1e-9 "90 degrees" 90.0
          (Ac.phase_deg { Complex.re = 0.0; im = 1.0 }));
    Alcotest.test_case "node_response extracts ground as zero" `Quick (fun () ->
        let sys =
          Mna.build
            (Netlist.of_elements
               [ Netlist.vac "v" "a" "0" ~dc:0.0 ~mag:1.0; Netlist.r "r" "a" "0" 1.0 ])
        in
        let op = Dc.solve sys in
        let pts = Ac.sweep sys ~op ~freqs:[| 1.0; 10.0 |] in
        let resp = Ac.node_response sys pts "0" in
        Array.iter (fun (_, z) -> check_close 0.0 "ground" 0.0 (Complex.norm z)) resp);
  ]

let experiment_tests =
  [
    Alcotest.test_case "op-amp process model has 14 parameters" `Quick (fun () ->
        let device = Experiment.opamp_device () in
        Alcotest.(check int) "params" 14 (Array.length device.Montecarlo.params);
        Alcotest.(check int) "specs" 11 device.Montecarlo.spec_count);
    Alcotest.test_case "mems process model has 17 parameters" `Quick (fun () ->
        let device = Experiment.mems_device () in
        Alcotest.(check int) "params" 17 (Array.length device.Montecarlo.params);
        Alcotest.(check int) "specs" 15 device.Montecarlo.spec_count);
    Alcotest.test_case "mems spec blocks share ranges across temps" `Quick
      (fun () ->
        let specs = Experiment.mems_specs in
        for i = 0 to 4 do
          Alcotest.(check (float 0.0)) "cold lower"
            specs.(i).Spec.range.Spec.lower specs.(i + 5).Spec.range.Spec.lower;
          Alcotest.(check (float 0.0)) "hot upper"
            specs.(i).Spec.range.Spec.upper specs.(i + 10).Spec.range.Spec.upper
        done);
    Alcotest.test_case "temperature indices partition correctly" `Quick (fun () ->
        let all =
          Array.to_list Experiment.mems_cold_indices
          @ Array.to_list Experiment.mems_hot_indices
        in
        Alcotest.(check int) "10 temperature tests" 10 (List.length all);
        List.iter
          (fun j -> Alcotest.(check bool) "not a room index" true (j >= 5))
          all);
    Alcotest.test_case "examination order is a permutation of 11" `Quick
      (fun () ->
        let sorted = Array.copy Experiment.opamp_examination_order in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "0..10" (Array.init 11 (fun i -> i)) sorted);
    Alcotest.test_case "uncalibrated mems differs from calibrated" `Quick
      (fun () ->
        let a, _ = Experiment.generate_mems ~calibrate:false ~seed:9 ~n_train:5 ~n_test:1 () in
        let b, _ = Experiment.generate_mems ~calibrate:true ~seed:9 ~n_train:5 ~n_test:1 () in
        (* same draws, different measurement scale (e.g. bandwidth) *)
        Alcotest.(check bool) "bandwidth scaled" true
          (Stc.Device_data.value a ~instance:0 ~spec:4
           <> Stc.Device_data.value b ~instance:0 ~spec:4));
  ]

let flow_edge_tests =
  [
    Alcotest.test_case "flow with everything dropped relies on model only"
      `Quick (fun () ->
        let specs =
          [|
            Spec.make ~name:"a" ~unit_label:"-" ~nominal:0.5 ~lower:0.0 ~upper:1.0;
            Spec.make ~name:"b" ~unit_label:"-" ~nominal:0.5 ~lower:0.0 ~upper:1.0;
          |]
        in
        let rng = Rng.create 3 in
        let values =
          Array.init 300 (fun _ -> [| Rng.float rng; Rng.float rng |])
        in
        let train = Stc.Device_data.make ~specs ~values in
        (* drop both: kept is empty; the model has no features, so the
           degenerate constant classifier applies *)
        (match Compaction.make_flow Compaction.default_config train ~dropped:[| 0; 1 |] with
         | flow ->
           Alcotest.(check int) "kept none" 0 (Array.length flow.Compaction.kept);
           ignore (Compaction.flow_verdict flow [| 0.5; 0.5 |])
         | exception Invalid_argument _ -> ()));
    Alcotest.test_case "evaluate_flow rejects mismatched data" `Quick (fun () ->
        let specs1 =
          [| Spec.make ~name:"a" ~unit_label:"-" ~nominal:0.5 ~lower:0.0 ~upper:1.0 |]
        in
        let flow = Compaction.identity_flow specs1 in
        let other =
          Stc.Device_data.make
            ~specs:
              [|
                Spec.make ~name:"x" ~unit_label:"-" ~nominal:0.0 ~lower:(-1.0)
                  ~upper:1.0;
                Spec.make ~name:"y" ~unit_label:"-" ~nominal:0.0 ~lower:(-1.0)
                  ~upper:1.0;
              |]
            ~values:[| [| 0.0; 0.0 |] |]
        in
        (match Compaction.evaluate_flow flow other with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected Invalid_argument"));
  ]

let cluster_tests =
  [
    Alcotest.test_case "exact copies cluster together" `Quick (fun () ->
        let specs =
          Array.init 4 (fun i ->
              Spec.make ~name:(string_of_int i) ~unit_label:"-" ~nominal:0.5
                ~lower:0.0 ~upper:1.0)
        in
        let rng = Rng.create 17 in
        let values =
          Array.init 200 (fun _ ->
              let a = Rng.float rng and b = Rng.float rng in
              [| a; a; b; b |])
        in
        let data = Stc.Device_data.make ~specs ~values in
        let groups = Stc.Order.clusters data ~threshold:0.9 in
        Alcotest.(check int) "two clusters" 2 (List.length groups);
        List.iter
          (fun g -> Alcotest.(check int) "pairs" 2 (List.length g))
          groups);
    Alcotest.test_case "cluster order keeps a representative last" `Quick
      (fun () ->
        let specs =
          Array.init 3 (fun i ->
              Spec.make ~name:(string_of_int i) ~unit_label:"-" ~nominal:0.5
                ~lower:0.0 ~upper:1.0)
        in
        let rng = Rng.create 18 in
        (* spec 0 and 1 identical (cluster); spec 2 independent.
           spec 1 fails more often than spec 0 would alone... all three
           share the same ranges, so failure counts of 0 and 1 are equal;
           the representative is then either — the property to check is
           that exactly one of {0,1} is examined before the other two
           positions are filled *)
        let values =
          Array.init 300 (fun _ ->
              let a = Rng.float rng *. 1.4 and b = Rng.float rng in
              [| a; a; b |])
        in
        let data = Stc.Device_data.make ~specs ~values in
        let order = Stc.Order.compute (Stc.Order.By_cluster 0.9) data in
        Alcotest.(check int) "length" 3 (Array.length order);
        (* the first examined spec must be one of the correlated pair *)
        Alcotest.(check bool) "first is 0 or 1" true
          (order.(0) = 0 || order.(0) = 1));
    Alcotest.test_case "threshold 1.1 gives all singletons" `Quick (fun () ->
        let specs =
          Array.init 3 (fun i ->
              Spec.make ~name:(string_of_int i) ~unit_label:"-" ~nominal:0.5
                ~lower:0.0 ~upper:1.0)
        in
        let rng = Rng.create 19 in
        let values =
          Array.init 100 (fun _ -> Array.init 3 (fun _ -> Rng.float rng))
        in
        let data = Stc.Device_data.make ~specs ~values in
        let groups = Stc.Order.clusters data ~threshold:1.1 in
        Alcotest.(check int) "three singletons" 3 (List.length groups));
  ]

let dc_sweep_tests =
  [
    Alcotest.test_case "divider transfer is linear in the source" `Quick
      (fun () ->
        let sys =
          Mna.build
            (Netlist.of_elements
               [
                 Netlist.vdc "vin" "in" "0" 0.0;
                 Netlist.r "r1" "in" "mid" 1000.0;
                 Netlist.r "r2" "mid" "0" 1000.0;
               ])
        in
        let points = Dc.sweep sys ~source:"vin" ~values:[| 0.0; 2.0; 4.0 |] in
        Array.iter
          (fun (v, x) ->
            (* the swept system has the same node order: rebuild index *)
            check_close 1e-6 "half" (v /. 2.0) x.(1) |> ignore;
            ignore (v, x))
          points;
        Alcotest.(check int) "three points" 3 (Array.length points));
    Alcotest.test_case "nmos inverter transfer is monotone falling" `Quick
      (fun () ->
        let netlist =
          Netlist.of_elements
            [
              Netlist.vdc "vdd" "vdd" "0" 5.0;
              Netlist.vdc "vin" "g" "0" 0.0;
              Netlist.r "rload" "vdd" "d" 10e3;
              Netlist.nmos "m1" ~d:"d" ~g:"g" ~s:"0" ~w:20e-6 ~l:1e-6 ();
            ]
        in
        let sys = Mna.build netlist in
        let values = Array.init 11 (fun i -> 0.5 *. float_of_int i) in
        let points = Dc.sweep sys ~source:"vin" ~values in
        let out_index = Mna.node_index sys "d" in
        let previous = ref Float.infinity in
        Array.iter
          (fun (_, x) ->
            let vout = x.(out_index) in
            Alcotest.(check bool) "monotone non-increasing" true
              (vout <= !previous +. 1e-9);
            previous := vout)
          points;
        (* rail-to-rail-ish swing *)
        let _, first = points.(0) and _, last = points.(10) in
        Alcotest.(check bool) "off output high" true (first.(out_index) > 4.9);
        Alcotest.(check bool) "on output low" true (last.(out_index) < 1.0));
    Alcotest.test_case "sweeping a resistor is rejected" `Quick (fun () ->
        let sys =
          Mna.build
            (Netlist.of_elements
               [ Netlist.vdc "v" "a" "0" 1.0; Netlist.r "r1" "a" "0" 1.0 ])
        in
        (match Dc.sweep sys ~source:"r1" ~values:[| 1.0 |] with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected Invalid_argument"));
  ]

let suites =
  [
    ("more.clusters", cluster_tests);
    ("more.dc_sweep", dc_sweep_tests);
    ("more.tran_options", tran_option_tests);
    ("more.ac_helpers", ac_helper_tests);
    ("more.experiment", experiment_tests);
    ("more.flow_edges", flow_edge_tests);
  ]
