(* The paper's first case study end-to-end: Monte-Carlo simulate the
   two-stage op-amp through its six test benches, then compact the
   eleven Table 1 specification tests.

   Sized down (300 + 150 instances, about 2 s on two cores); the bench
   harness (bench/main.exe) runs the larger version.

     dune exec examples/opamp_compaction.exe *)

module Experiment = Stc.Experiment
module Device_data = Stc.Device_data
module Compaction = Stc.Compaction
module Metrics = Stc.Metrics
module Order = Stc.Order
module Spec = Stc.Spec
module Report = Stc.Report

let () =
  print_endline "simulating 450 op-amp instances (DC + AC + 2 transients each)...";
  let train, test = Experiment.generate_opamp ~seed:7 ~n_train:300 ~n_test:150 () in
  let specs = Device_data.specs train in
  Printf.printf "train yield %.1f%%, test yield %.1f%% (paper: 75.4%% / 84.8%%)\n\n"
    (100.0 *. Device_data.yield_fraction train)
    (100.0 *. Device_data.yield_fraction test);

  (* which specs actually reject devices in this population? *)
  let failures = Order.failure_counts train in
  Array.iteri
    (fun j count ->
      if count > 0 then
        Printf.printf "  %-24s rejects %3d / %d training devices\n"
          specs.(j).Spec.name count
          (Device_data.n_instances train))
    failures;
  print_newline ();

  (* the greedy loop in the paper's functional-analysis order *)
  let result =
    Compaction.greedy
      ~order:(Order.Given Experiment.opamp_examination_order)
      Experiment.opamp_config ~train ~test
  in
  List.iter
    (fun s ->
      Printf.printf "candidate %-24s e_p = %5.2f%%  %s\n"
        specs.(s.Compaction.spec_index).Spec.name
        (100.0 *. s.Compaction.error)
        (if s.Compaction.accepted then "ELIMINATED" else "kept"))
    result.Compaction.steps;

  let flow = result.Compaction.flow in
  Printf.printf "\nremaining tests:";
  Array.iter (fun j -> Printf.printf " %s;" specs.(j).Spec.name) flow.Compaction.kept;
  print_newline ();
  let counts = Compaction.evaluate_flow flow test in
  Printf.printf "compacted flow: escape %s, loss %s, guard band %s\n"
    (Report.pct (Metrics.escape_pct counts))
    (Report.pct (Metrics.loss_pct counts))
    (Report.pct (Metrics.guard_pct counts))
