(* Paper-golden regression suite: locks the headline results of the
   paper's evaluation (Sec. 5) behind explicit thresholds, so a change
   that quietly degrades compaction quality fails the build.

   Two tiers, both seeded and deterministic:
   - smoke (always on): reduced populations, loosened thresholds — a
     canary that the whole pipeline still compacts at all;
   - paper level (STC_SLOW=1): near-paper populations and the paper's
     own acceptance bars — op-amp drops at least 5 of the 11 tests with
     defect escape <= 1.0% and yield loss <= 1.5%; MEMS eliminates both
     temperature tests at <= 0.5% error with > 50% cost saving. *)

module Experiment = Stc.Experiment
module Device_data = Stc.Device_data
module Compaction = Stc.Compaction
module Metrics = Stc.Metrics
module Cost = Stc.Cost
module Order = Stc.Order

let slow =
  match Sys.getenv_opt "STC_SLOW" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let seed = 2005

let check_le name limit v =
  if not (v <= limit) then
    Alcotest.failf "%s: %.3f exceeds the golden threshold %.3f" name v limit

let check_ge name floor v =
  if not (v >= floor) then
    Alcotest.failf "%s: %.3f below the golden threshold %.3f" name v floor

(* ------------------------- op-amp greedy -------------------------- *)

let opamp_greedy ~n_train ~n_test =
  let train, test = Experiment.generate_opamp ~seed ~n_train ~n_test () in
  let result =
    Compaction.greedy
      ~order:(Order.Given Experiment.opamp_examination_order)
      Experiment.opamp_config ~train ~test
  in
  let counts = Compaction.evaluate_flow result.Compaction.flow test in
  (Array.length result.Compaction.flow.Compaction.dropped, counts)

let opamp_case ~label ~n_train ~n_test ~min_dropped ~max_escape ~max_loss =
  Alcotest.test_case label `Slow (fun () ->
      let dropped, counts = opamp_greedy ~n_train ~n_test in
      check_ge "tests dropped" (float_of_int min_dropped)
        (float_of_int dropped);
      check_le "defect escape %" max_escape (Metrics.escape_pct counts);
      check_le "yield loss %" max_loss (Metrics.loss_pct counts))

(* --------------------- MEMS temperature tests --------------------- *)

let mems_both ~n_train ~n_test =
  let train, test = Experiment.generate_mems ~seed ~n_train ~n_test () in
  let both =
    Array.append Experiment.mems_cold_indices Experiment.mems_hot_indices
  in
  let counts, _ =
    Compaction.eliminate Experiment.mems_config ~train ~test ~dropped:both
  in
  let room = Array.init 5 (fun k -> k) in
  let room_pass = ref 0 in
  for i = 0 to Device_data.n_instances test - 1 do
    if Device_data.passes_subset test ~instance:i ~subset:room then
      incr room_pass
  done;
  let cost =
    Cost.tri_temperature ~n:counts.Metrics.total ~room_pass:!room_pass
      ~guard:counts.Metrics.guards ()
  in
  (counts, cost)

let mems_case ~label ~n_train ~n_test ~max_error ~min_saving =
  Alcotest.test_case label `Slow (fun () ->
      let counts, cost = mems_both ~n_train ~n_test in
      check_le "defect escape %" max_error (Metrics.escape_pct counts);
      check_le "yield loss %" max_error (Metrics.loss_pct counts);
      check_ge "cost saving %" min_saving cost.Cost.saving_pct)

(* --------------------- stc-flow-2 byte pin ------------------------ *)

(* The first multi-model-family container: an op-amp flow trained with
   the MLP learner must keep producing these exact bytes. The pin
   covers the whole chain — MLP training determinism, the stc-mlp-1
   body, Model_text embedding, and the stc-flow-2 container — so any
   accidental format or arithmetic drift fails here by fingerprint.
   The training data are simulated, so any change to the simulated
   op-amp specs or to the Monte-Carlo instance streams moves the pin
   too. *)
let flow2_fingerprint = "39d9dda02e92ab62"

let flow2_pin =
  Alcotest.test_case "golden: stc-flow-2 op-amp flow bytes pinned" `Quick
    (fun () ->
      let train, test =
        Experiment.generate_opamp ~seed:701 ~n_train:80 ~n_test:40 ()
      in
      let config =
        {
          Experiment.opamp_config with
          Compaction.learner = Stc.Learner.default_mlp;
        }
      in
      let result =
        Compaction.greedy
          ~order:(Order.Given Experiment.opamp_examination_order)
          config ~train ~test
      in
      let text =
        match Stc_floor.Flow_io.to_string result.Compaction.flow with
        | Ok s -> s
        | Error e -> Alcotest.failf "flow does not serialise: %s" e
      in
      let header = String.sub text 0 (String.index text '\n') in
      Alcotest.(check string) "container version" "stc-flow-2" header;
      let fp =
        match Stc_floor.Flow_io.fingerprint result.Compaction.flow with
        | Ok fp -> fp
        | Error e -> Alcotest.failf "flow does not fingerprint: %s" e
      in
      Alcotest.(check string) "flow fingerprint" flow2_fingerprint fp)

(* ------------------------------ tiers ----------------------------- *)

let smoke_tests =
  [
    opamp_case ~label:"smoke: op-amp greedy still compacts" ~n_train:150
      ~n_test:80 ~min_dropped:3 ~max_escape:4.0 ~max_loss:4.0;
    mems_case ~label:"smoke: MEMS temperature tests eliminable" ~n_train:300
      ~n_test:300 ~max_error:1.5 ~min_saving:40.0;
    flow2_pin;
  ]

let paper_tests =
  if not slow then
    [
      Alcotest.test_case "paper-level tier skipped (set STC_SLOW=1)" `Quick
        (fun () -> ());
    ]
  else
    [
      opamp_case ~label:"paper: >=5 of 11 op-amp tests dropped" ~n_train:1200
        ~n_test:400 ~min_dropped:5 ~max_escape:1.0 ~max_loss:1.5;
      mems_case ~label:"paper: both temperature tests at <=0.5% error"
        ~n_train:1000 ~n_test:1000 ~max_error:0.5 ~min_saving:50.0;
    ]

let suites =
  [ ("golden: smoke", smoke_tests); ("golden: paper level", paper_tests) ]
