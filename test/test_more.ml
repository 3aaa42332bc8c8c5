(* Second-round coverage: transient breakpoints, experiment wiring, and
   API edge cases not covered by the per-module suites. *)

module Netlist = Stc_circuit.Netlist
module Wave = Stc_circuit.Wave
module Mna = Stc_circuit.Mna
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

let suites =
  [
    ("more.clusters", cluster_tests);
    ("more.tran_options", tran_option_tests);
    ("more.experiment", experiment_tests);
    ("more.flow_edges", flow_edge_tests);
  ]
