(* Aggregates every suite into one alcotest binary: `dune runtest`. *)

let () =
  Alcotest.run "stc"
    (Test_numerics.suites
     @ Test_circuit.suites
     @ Test_sim_pins.suites
     @ Test_spice.suites
     @ Test_io.suites
     @ Test_more.suites
     @ Test_mems.suites
     @ Test_svm.suites
     @ Test_process.suites
     @ Test_core.suites
     @ Test_floor.suites
     @ Test_extensions.suites
     @ Test_integration.suites
     @ Test_qa.suites @ Test_resilience.suites @ Test_net.suites
     @ Test_obs.suites @ Test_units.suites @ Test_svm_equiv.suites
     @ Test_learner.suites @ Test_golden.suites)
