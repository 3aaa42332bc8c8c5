(* Using the public API on your own device.

   Any device can be plugged into the compaction flow by providing
   (a) its specification list, (b) a `Stc_process.Montecarlo.device`
   that simulates one instance from a drawn parameter vector. Here we
   model a bandgap voltage reference behaviourally: four underlying
   process parameters produce five correlated specifications, three of
   which turn out to be predictable from the other two.

     dune exec examples/custom_device.exe *)

module Spec = Stc.Spec
module Device_data = Stc.Device_data
module Compaction = Stc.Compaction
module Metrics = Stc.Metrics
module Order = Stc.Order
module Report = Stc.Report
module Floor = Stc_floor.Floor
module Variation = Stc_process.Variation
module Montecarlo = Stc_process.Montecarlo

(* Bandgap behavioural model: vref = vbe + k·vt, its temperature
   coefficient, line regulation, startup time and supply current all
   derive from the same four process quantities. *)
let specs =
  [|
    Spec.make ~name:"vref" ~unit_label:"V" ~nominal:1.20 ~lower:1.14 ~upper:1.26;
    Spec.make ~name:"tempco" ~unit_label:"ppm/K" ~nominal:15.0 ~lower:0.0 ~upper:40.0;
    Spec.make ~name:"line regulation" ~unit_label:"mV/V" ~nominal:1.5 ~lower:0.0 ~upper:4.0;
    Spec.make ~name:"startup time" ~unit_label:"us" ~nominal:40.0 ~lower:5.0 ~upper:80.0;
    Spec.make ~name:"supply current" ~unit_label:"uA" ~nominal:28.0 ~lower:18.0 ~upper:38.0;
  |]

let device =
  {
    Montecarlo.device_name = "bandgap reference";
    params =
      [|
        Variation.param "vbe" 0.62 (Variation.Normal_relative 0.02);
        Variation.param "resistor ratio" 22.4 (Variation.Uniform_relative 0.02);
        Variation.param "mirror gain" 1.0 (Variation.Normal_relative 0.03);
        Variation.param "bias current" 4.0e-6 (Variation.Uniform_relative 0.10);
      |];
    spec_count = Array.length specs;
    simulate =
      (fun p ->
        let vbe = p.(0) and ratio = p.(1) and mirror = p.(2) and ibias = p.(3) in
        let vt = 0.02585 in
        let vref = vbe +. (ratio *. vt *. mirror) in
        (* first-order curvature error grows with ratio mismatch *)
        let tempco = 15.0 +. (300.0 *. (vref -. 1.20)) in
        let line_reg = 1.5 /. mirror in
        let startup = 40.0 *. 4.0e-6 /. ibias /. mirror in
        let supply = 1e6 *. ibias *. 7.0 *. mirror in
        Some [| vref; tempco; line_reg; startup; supply |]);
  }

let () =
  let all = Montecarlo.generate_parallel ~seed:31 device ~n:3000 in
  let train_mc, test_mc = Montecarlo.split all ~at:2000 in
  let train = Device_data.of_montecarlo ~specs train_mc in
  let test = Device_data.of_montecarlo ~specs test_mc in
  Printf.printf "bandgap population: train yield %.1f%%, test yield %.1f%%\n\n"
    (100.0 *. Device_data.yield_fraction train)
    (100.0 *. Device_data.yield_fraction test);

  let config =
    { Compaction.default_config with Compaction.guard_fraction = 0.005 }
  in
  (* let the data decide the examination order this time *)
  let result = Compaction.greedy ~order:Order.By_correlation config ~train ~test in
  List.iter
    (fun s ->
      Printf.printf "candidate %-16s e_p = %.2f%%  %s\n"
        specs.(s.Compaction.spec_index).Spec.name
        (100.0 *. s.Compaction.error)
        (if s.Compaction.accepted then "ELIMINATED" else "kept"))
    result.Compaction.steps;

  let flow = result.Compaction.flow in
  let counts = Compaction.evaluate_flow flow test in
  Printf.printf "\nflow with %d of %d tests: escape %s, loss %s, guard %s\n"
    (Array.length flow.Compaction.kept)
    (Array.length specs)
    (Report.pct (Metrics.escape_pct counts))
    (Report.pct (Metrics.loss_pct counts))
    (Report.pct (Metrics.guard_pct counts));

  let stats =
    Floor.with_engine flow (fun engine ->
        let (_ : Floor.outcome array) =
          Floor.process ~retest:(Floor.full_test flow) engine
            (Device_data.values test)
        in
        Floor.stats engine)
  in
  Printf.printf
    "production: shipped %d / scrapped %d / %d guard parts fully retested\n"
    stats.Floor.shipped stats.Floor.scrapped stats.Floor.retested
