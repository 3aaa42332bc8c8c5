(* Reproduction harness: regenerates, as text, every table and figure
   of the paper's evaluation section (Sec. 5), the ablations and
   extensions, the learner zoo and boundary-biased enrichment. It is
   not a performance benchmark: stcbench (BENCHMARK.json,
   stcbench/README.md) is the one timing harness, serving included.

   Scale: by default the op-amp populations are reduced to 1200+400
   instances; run with STC_FULL=1 in the environment for the paper's
   5000+1000. All seeds are fixed, so the output is deterministic
   apart from wall times. *)

module Experiment = Stc.Experiment
module Device_data = Stc.Device_data
module Compaction = Stc.Compaction
module Metrics = Stc.Metrics
module Guard_band = Stc.Guard_band
module Cost = Stc.Cost
module Spec = Stc.Spec
module Order = Stc.Order
module Report = Stc.Report
module Grid_compact = Stc.Grid_compact
module Rng = Stc_numerics.Rng

let full_scale =
  match Sys.getenv_opt "STC_FULL" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let opamp_train_n = if full_scale then 5000 else 1200
let opamp_test_n = if full_scale then 1000 else 400
let mems_train_n = 1000
let mems_test_n = 1000

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let spec_name specs j = specs.(j).Spec.name

(* Data is generated once and shared across the sections. *)
let opamp_data =
  lazy
    (let t0 = Unix.gettimeofday () in
     let d = Experiment.generate_opamp ~seed:2005 ~n_train:opamp_train_n
               ~n_test:opamp_test_n ()
     in
     Printf.printf "[generated %d op-amp instances in %.1f s]\n"
       (opamp_train_n + opamp_test_n)
       (Unix.gettimeofday () -. t0);
     d)

let mems_data =
  lazy (Experiment.generate_mems ~seed:2005 ~n_train:mems_train_n ~n_test:mems_test_n ())

(* ------------------------------------------------------------------ *)
(* Table 1: op-amp specifications and population yields                *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: op-amp specifications (nominals, ranges) and yields";
  let train, test = Lazy.force opamp_data in
  let specs = Device_data.specs train in
  let rows =
    Array.to_list
      (Array.mapi
         (fun j s ->
           let col = Device_data.spec_column train j in
           [
             s.Spec.name;
             s.Spec.unit_label;
             Report.g3 s.Spec.nominal;
             Printf.sprintf "%s..%s" (Report.g3 s.Spec.range.Spec.lower)
               (Report.g3 s.Spec.range.Spec.upper);
             Report.g3 (Stc_numerics.Stats.median col);
           ])
         specs)
  in
  print_string
    (Report.table
       ~header:[ "specification"; "unit"; "nominal"; "range"; "measured median" ]
       rows);
  Printf.printf
    "yield: train %.1f%% / test %.1f%%   (paper: 75.4%% / 84.8%%)\n"
    (100.0 *. Device_data.yield_fraction train)
    (100.0 *. Device_data.yield_fraction test)

(* ------------------------------------------------------------------ *)
(* Figure 5: error vs cumulatively eliminated op-amp tests             *)
(* ------------------------------------------------------------------ *)

let figure5 () =
  section
    "Figure 5: yield loss / defect escape / guard band vs cumulative \
     test elimination (op-amp)";
  let train, test = Lazy.force opamp_data in
  let specs = Device_data.specs train in
  let config = Experiment.opamp_config in
  let order = Experiment.opamp_examination_order in
  (* eliminate cumulatively in the functional-analysis order; at each
     prefix, train the guard-banded predictor and evaluate on test *)
  let steps = 8 in
  let labels = ref [] and loss = ref [] and escape = ref [] and guard = ref [] in
  for k = 1 to steps do
    let dropped = Array.sub order 0 k in
    let counts, _ = Compaction.eliminate config ~train ~test ~dropped in
    labels := spec_name specs order.(k - 1) :: !labels;
    loss := Metrics.loss_pct counts :: !loss;
    escape := Metrics.escape_pct counts :: !escape;
    guard := Metrics.guard_pct counts :: !guard
  done;
  print_string
    (Report.series ~x_label:"eliminated test (cumulative)"
       ~x:(List.rev !labels)
       [
         ("yield loss %", List.rev !loss);
         ("defect escape %", List.rev !escape);
         ("in guard band %", List.rev !guard);
       ]);
  Printf.printf
    "(paper: ~5 of 11 tests dropped at 0.6%% escape / 0.9%% loss, stable guard band)\n"

(* ------------------------------------------------------------------ *)
(* Greedy compaction (the Fig. 2 loop) on the op-amp                   *)
(* ------------------------------------------------------------------ *)

let greedy_opamp () =
  section "Greedy compaction (Fig. 2 procedure) on the op-amp";
  let train, test = Lazy.force opamp_data in
  let specs = Device_data.specs train in
  let result =
    Compaction.greedy
      ~order:(Order.Given Experiment.opamp_examination_order)
      Experiment.opamp_config ~train ~test
  in
  let rows =
    List.map
      (fun s ->
        [
          spec_name specs s.Compaction.spec_index;
          Printf.sprintf "%.2f%%" (100.0 *. s.Compaction.error);
          (if s.Compaction.accepted then "eliminated" else "kept");
        ])
      result.Compaction.steps
  in
  print_string
    (Report.table ~header:[ "candidate test"; "prediction error e_p"; "decision" ] rows);
  let counts = Compaction.evaluate_flow result.Compaction.flow test in
  Printf.printf
    "dropped %d of %d tests; final flow: escape %s, loss %s, guard %s\n"
    (Array.length result.Compaction.flow.Compaction.dropped)
    (Array.length specs)
    (Report.pct (Metrics.escape_pct counts))
    (Report.pct (Metrics.loss_pct counts))
    (Report.pct (Metrics.guard_pct counts))

(* ------------------------------------------------------------------ *)
(* Figure 6: accuracy vs number of training instances                  *)
(* ------------------------------------------------------------------ *)

let figure6 () =
  section
    "Figure 6: error vs training-set size. The paper eliminates the 3-dB \
     bandwidth test; in our population that test is subsumed by the kept \
     specs at any training size, so we eliminate slew rate + quiescent \
     current — the hard-to-predict pair where training data matters";
  let train, test = Lazy.force opamp_data in
  let config = Experiment.opamp_config in
  let dropped = [| 3; 7 |] in
  let sizes =
    if full_scale then [ 50; 100; 250; 500; 1000; 2000; 3500; 5000 ]
    else [ 50; 100; 200; 400; 800; opamp_train_n ]
  in
  let rows =
    List.map
      (fun n ->
        let subset =
          Device_data.make
            ~specs:(Device_data.specs train)
            ~values:(Array.sub (Device_data.values train) 0 n)
        in
        let counts, _ = Compaction.eliminate config ~train:subset ~test ~dropped in
        (n, counts))
      sizes
  in
  print_string
    (Report.series ~x_label:"training instances"
       ~x:(List.map (fun (n, _) -> string_of_int n) rows)
       [
         ("yield loss %", List.map (fun (_, c) -> Metrics.loss_pct c) rows);
         ("defect escape %", List.map (fun (_, c) -> Metrics.escape_pct c) rows);
         ("in guard band %", List.map (fun (_, c) -> Metrics.guard_pct c) rows);
       ]);
  Printf.printf "(paper: loss and escape shrink as training data grows)\n"

(* ------------------------------------------------------------------ *)
(* Table 2: MEMS specifications and yields                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: MEMS accelerometer specifications and yields";
  let train, test = Lazy.force mems_data in
  let rows =
    Array.to_list
      (Array.map
         (fun s ->
           [
             s.Spec.name;
             s.Spec.unit_label;
             Report.g3 s.Spec.nominal;
             Printf.sprintf "%s..%s" (Report.g3 s.Spec.range.Spec.lower)
               (Report.g3 s.Spec.range.Spec.upper);
           ])
         Experiment.mems_room_specs)
  in
  print_string
    (Report.table ~header:[ "specification"; "unit"; "nominal"; "range" ] rows);
  Printf.printf
    "tested at -40 degC / 14.85 degC / 80 degC; yield: train %.1f%% / test %.1f%%   (paper: 77.4%% / 79.3%%)\n"
    (100.0 *. Device_data.yield_fraction train)
    (100.0 *. Device_data.yield_fraction test)

(* ------------------------------------------------------------------ *)
(* Table 3: eliminating the temperature tests                          *)
(* ------------------------------------------------------------------ *)

let table3_counts =
  lazy
    (let train, test = Lazy.force mems_data in
     let config = Experiment.mems_config in
     let both =
       Array.append Experiment.mems_cold_indices Experiment.mems_hot_indices
     in
     List.map
       (fun (name, dropped) ->
         let counts, flow = Compaction.eliminate config ~train ~test ~dropped in
         (name, counts, flow))
       [
         ("-40", Experiment.mems_cold_indices);
         ("80", Experiment.mems_hot_indices);
         ("Both", both);
       ])

let table3 () =
  section "Table 3: eliminating the hot/cold temperature tests (MEMS)";
  let rows =
    List.map
      (fun (name, counts, _) ->
        [
          name;
          Report.pct (Metrics.escape_pct counts);
          Report.pct (Metrics.loss_pct counts);
          Report.pct (Metrics.guard_pct counts);
        ])
      (Lazy.force table3_counts)
  in
  print_string
    (Report.table
       ~header:
         [ "eliminated test"; "defect escape"; "yield loss"; "in guard band" ]
       rows);
  Printf.printf
    "(paper: -40: 0.1/0.0/2.6  80: 0.1/0.1/5.8  Both: 0.2/0.1/8.4)\n"

(* ------------------------------------------------------------------ *)
(* Sec. 5.2: test-cost arithmetic                                      *)
(* ------------------------------------------------------------------ *)

let cost_analysis () =
  section "Sec 5.2: tri-temperature test-cost saving (MEMS)";
  let _, test = Lazy.force mems_data in
  let room_subset = Array.init 5 (fun k -> k) in
  let room_pass =
    let count = ref 0 in
    for i = 0 to Device_data.n_instances test - 1 do
      if Device_data.passes_subset test ~instance:i ~subset:room_subset then
        incr count
    done;
    !count
  in
  (match Lazy.force table3_counts with
   | [ _; _; (_, counts, _) ] ->
     let n = counts.Metrics.total in
     let guard = counts.Metrics.guards in
     let r = Cost.tri_temperature ~n ~room_pass ~guard () in
     Printf.printf
       "%d devices, %d pass room tests, %d in guard band\n\
        full tri-temperature flow: $%.0f\n\
        compacted flow (room + guard retest): $%.0f\n\
        saving: %.1f%%   (paper: $2548 -> $1168, ~54%%)\n"
       n room_pass guard r.Cost.full r.Cost.compacted r.Cost.saving_pct
   | _ -> assert false);
  (* also verify the paper's own arithmetic *)
  let paper = Cost.tri_temperature ~n:1000 ~room_pass:774 ~guard:84 () in
  Printf.printf
    "check with the paper's own counts (774 room pass, 84 guard): $%.0f -> $%.0f (%.1f%%)\n"
    paper.Cost.full paper.Cost.compacted paper.Cost.saving_pct

(* ------------------------------------------------------------------ *)
(* Figure 3: derived acceptance region                                 *)
(* ------------------------------------------------------------------ *)

let figure3 () =
  section
    "Figure 3: acceptance region over the two kept specs after dropping \
     a dependent third (synthetic)";
  (* s2 = s0 + s1; after dropping s2's test the acceptance region over
     (s0, s1) is the rectangle clipped by the 1.3 <= s0+s1 <= 2.5 band *)
  let specs =
    [|
      Spec.make ~name:"s0" ~unit_label:"-" ~nominal:1.0 ~lower:0.5 ~upper:1.5;
      Spec.make ~name:"s1" ~unit_label:"-" ~nominal:1.0 ~lower:0.5 ~upper:1.5;
      Spec.make ~name:"s2" ~unit_label:"-" ~nominal:2.0 ~lower:1.3 ~upper:2.5;
    |]
  in
  let rng = Rng.create 3 in
  let values =
    Array.init 1500 (fun _ ->
        let a = Rng.gaussian rng ~mean:1.0 ~sigma:0.3 in
        let b = Rng.gaussian rng ~mean:1.0 ~sigma:0.3 in
        [| a; b; a +. b |])
  in
  let train = Device_data.make ~specs ~values in
  let config =
    { Compaction.default_config with Compaction.guard_fraction = 0.02 }
  in
  let flow = Compaction.make_flow config train ~dropped:[| 2 |] in
  (* sample the verdict over the (s0, s1) plane; '#' = accepted *)
  let samples = ref [] in
  for i = 0 to 59 do
    for j = 0 to 59 do
      let a = 0.3 +. (1.5 *. float_of_int i /. 59.0) in
      let b = 0.3 +. (1.5 *. float_of_int j /. 59.0) in
      let verdict = Compaction.flow_verdict flow [| a; b; 0.0 |] in
      if Guard_band.equal_verdict verdict Guard_band.Good then
        samples := (a, b) :: !samples
    done
  done;
  print_string (Report.ascii_plot ~width:60 ~height:24 (Array.of_list !samples));
  Printf.printf
    "(accepted (s0, s1) points: the rectangle corners where s0+s1 would \
     violate s2's range are carved away, as in Fig. 3)\n"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_ordering () =
  section "Ablation: test-examination ordering strategies (op-amp greedy)";
  let train, test = Lazy.force opamp_data in
  let strategies =
    [
      ("functional analysis (paper)", Order.Given Experiment.opamp_examination_order);
      ("fewest failures first", Order.By_failure_count);
      ("most correlated first", Order.By_correlation);
      ("correlation clustering", Order.By_cluster 0.8);
    ]
  in
  let rows =
    List.map
      (fun (name, order) ->
        let result =
          Compaction.greedy ~order Experiment.opamp_config ~train ~test
        in
        let counts = Compaction.evaluate_flow result.Compaction.flow test in
        [
          name;
          string_of_int (Array.length result.Compaction.flow.Compaction.dropped);
          Report.pct (Metrics.escape_pct counts);
          Report.pct (Metrics.loss_pct counts);
          Report.pct (Metrics.guard_pct counts);
        ])
      strategies
  in
  print_string
    (Report.table
       ~header:[ "ordering"; "tests dropped"; "escape"; "loss"; "guard" ]
       rows)

let ablation_learner () =
  section "Ablation: epsilon-SVR (paper) vs C-SVC classification";
  let train, test = Lazy.force opamp_data in
  let learners =
    [
      ("epsilon-SVR", Compaction.Epsilon_svr { c = 10.0; epsilon = 0.1; gamma = None });
      ("C-SVC", Compaction.C_svc { c = 10.0; gamma = None });
    ]
  in
  let rows =
    List.map
      (fun (name, learner) ->
        let config = { Experiment.opamp_config with Compaction.learner } in
        let result =
          Compaction.greedy
            ~order:(Order.Given Experiment.opamp_examination_order)
            config ~train ~test
        in
        let counts = Compaction.evaluate_flow result.Compaction.flow test in
        [
          name;
          string_of_int (Array.length result.Compaction.flow.Compaction.dropped);
          Report.pct (Metrics.escape_pct counts);
          Report.pct (Metrics.loss_pct counts);
          Report.pct (Metrics.guard_pct counts);
        ])
      learners
  in
  print_string
    (Report.table
       ~header:[ "learner"; "tests dropped"; "escape"; "loss"; "guard" ]
       rows)

(* The learner zoo under the differential promotion gate's conditions:
   every learner × examination-order combination runs the same greedy
   compaction at equal tolerance, so escape / yield loss / train
   wall-time are directly comparable across families. *)
let learner_zoo () =
  section "Learner zoo: svr/mlp x greedy(functional)/mi at equal tolerance";
  let train, test = Lazy.force opamp_data in
  let learners =
    [ ("svr", Stc.Learner.default_svr); ("mlp", Stc.Learner.default_mlp) ]
  in
  let orders =
    [
      ("greedy", Order.Given Experiment.opamp_examination_order);
      ("mi", Order.By_mutual_information);
    ]
  in
  let rows =
    List.concat_map
      (fun (lname, learner) ->
        List.map
          (fun (oname, order) ->
            let config = { Experiment.opamp_config with Compaction.learner } in
            let t0 = Unix.gettimeofday () in
            let result = Compaction.greedy ~order config ~train ~test in
            let wall = Unix.gettimeofday () -. t0 in
            let counts = Compaction.evaluate_flow result.Compaction.flow test in
            let dropped =
              Array.length result.Compaction.flow.Compaction.dropped
            in
            [
              Printf.sprintf "%s / %s" lname oname;
              string_of_int dropped;
              Report.pct (Metrics.escape_pct counts);
              Report.pct (Metrics.loss_pct counts);
              Printf.sprintf "%.2f s" wall;
            ])
          orders)
      learners
  in
  print_string
    (Report.table
       ~header:[ "learner / order"; "tests dropped"; "escape"; "loss"; "train" ]
       rows)

let ablation_grid () =
  section "Ablation: grid-based training-data compaction (Sec 4.3)";
  let train, test = Lazy.force mems_data in
  let both =
    Array.append Experiment.mems_cold_indices Experiment.mems_hot_indices
  in
  let variants =
    [
      ("no compaction", None);
      ("grid res 6", Some { Grid_compact.default_config with Grid_compact.resolution = 6 });
      ("grid res 10", Some { Grid_compact.default_config with Grid_compact.resolution = 10 });
    ]
  in
  let rows =
    List.map
      (fun (name, grid) ->
        let config = { Experiment.mems_config with Compaction.grid } in
        let t0 = Unix.gettimeofday () in
        let counts, _ = Compaction.eliminate config ~train ~test ~dropped:both in
        let dt = Unix.gettimeofday () -. t0 in
        let training_rows =
          match grid with
          | None -> Device_data.n_instances train
          | Some g ->
            let features =
              Device_data.features train ~keep:(Array.init 5 (fun k -> k))
            in
            let labels = Device_data.pass_labels train ~subset:both in
            let r = Grid_compact.compact ~config:g ~features ~labels () in
            Array.length r.Grid_compact.features
        in
        [
          name;
          string_of_int training_rows;
          Report.pct (Metrics.escape_pct counts);
          Report.pct (Metrics.loss_pct counts);
          Report.pct (Metrics.guard_pct counts);
          Printf.sprintf "%.2f s" dt;
        ])
      variants
  in
  print_string
    (Report.table
       ~header:
         [ "training data"; "rows"; "escape"; "loss"; "guard"; "train time" ]
       rows)

let ablation_guard_width () =
  section "Ablation: guard-band width vs error and retest volume (MEMS)";
  let train, test = Lazy.force mems_data in
  let both =
    Array.append Experiment.mems_cold_indices Experiment.mems_hot_indices
  in
  let rows =
    List.map
      (fun gf ->
        let config = { Experiment.mems_config with Compaction.guard_fraction = gf } in
        let counts, _ = Compaction.eliminate config ~train ~test ~dropped:both in
        [
          Printf.sprintf "+/-%.1f%%" (100.0 *. gf);
          Report.pct (Metrics.escape_pct counts);
          Report.pct (Metrics.loss_pct counts);
          Report.pct (Metrics.guard_pct counts);
        ])
      [ 0.0; 0.01; 0.025; 0.05; 0.1 ]
  in
  print_string
    (Report.table ~header:[ "guard width"; "escape"; "loss"; "guard" ] rows);
  Printf.printf
    "(the paper's trade-off: wider guard bands trade retest volume for error)\n"

let ablation_regression () =
  section
    "Ablation: classification (paper, Sec 4.1) vs regression-then-threshold \
     baseline";
  let train, test = Lazy.force opamp_data in
  let dropped = [| 0; 1; 2; 5; 6; 8; 9; 10 |] in
  let kept = [| 3; 4; 7 |] in
  let t0 = Unix.gettimeofday () in
  let _, nominal =
    Compaction.train_predictor Experiment.opamp_config train ~dropped
  in
  let classification_time = Unix.gettimeofday () -. t0 in
  let classification_error =
    Compaction.prediction_error nominal test ~kept ~dropped
  in
  let t0 = Unix.gettimeofday () in
  let baseline = Stc.Regression_baseline.train train ~dropped in
  let regression_time = Unix.gettimeofday () -. t0 in
  let regression_error = Stc.Regression_baseline.prediction_error baseline test in
  print_string
    (Report.table
       ~header:[ "approach"; "models"; "e_p on test"; "train time" ]
       [
         [
           "epsilon-SVM classification"; "3 (nominal+guard pair)";
           Report.pct (100.0 *. classification_error);
           Printf.sprintf "%.2f s" classification_time;
         ];
         [
           "per-spec value regression";
           string_of_int (Array.length dropped);
           Report.pct (100.0 *. regression_error);
           Printf.sprintf "%.2f s" regression_time;
         ];
       ]);
  Printf.printf
    "(Sec 4.1: regression must model the whole response surface; \
     classification only the class boundary)\n"

let ablation_adaptive_guard () =
  section
    "Extension: distribution-based guard band (paper future work, Sec 6) \
     vs fixed range perturbation";
  let train, test = Lazy.force mems_data in
  let both =
    Array.append Experiment.mems_cold_indices Experiment.mems_hot_indices
  in
  let fixed_counts, _ =
    Compaction.eliminate Experiment.mems_config ~train ~test ~dropped:both
  in
  let rows_fixed =
    [
      Printf.sprintf "fixed +/-%g%% range perturbation"
        (100.0 *. Experiment.mems_config.Compaction.guard_fraction);
      Report.pct (Metrics.escape_pct fixed_counts);
      Report.pct (Metrics.loss_pct fixed_counts);
      Report.pct (Metrics.guard_pct fixed_counts);
    ]
  in
  let rows_adaptive =
    List.map
      (fun target ->
        let config =
          { Stc.Adaptive_guard.default_config with
            Stc.Adaptive_guard.target_guard = target }
        in
        let adaptive = Stc.Adaptive_guard.train ~config train ~dropped:both in
        let counts =
          Compaction.evaluate_flow (Stc.Adaptive_guard.flow adaptive) test
        in
        [
          Printf.sprintf "adaptive margin, target %.0f%% (got m=%.3f)"
            (100.0 *. target)
            (Stc.Adaptive_guard.margin adaptive);
          Report.pct (Metrics.escape_pct counts);
          Report.pct (Metrics.loss_pct counts);
          Report.pct (Metrics.guard_pct counts);
        ])
      [ 0.02; 0.05; 0.10 ]
  in
  print_string
    (Report.table ~header:[ "guard policy"; "escape"; "loss"; "guard" ]
       (rows_fixed :: rows_adaptive))

let ablation_process_model () =
  section
    "Extension: correlated process + injected defects (paper future work, \
     Sec 6)";
  let device = Experiment.mems_device () in
  let specs = Experiment.mems_specs in
  let both =
    Array.append Experiment.mems_cold_indices Experiment.mems_hot_indices
  in
  let config = Experiment.mems_config in
  (* correlated (die-level) variation: same marginal spread, shared factor *)
  let rows_corr =
    List.map
      (fun rho ->
        let data =
          Stc_process.Process_model.correlated_device ~seed:77 device
            ~die_correlation:rho ~n:2000
        in
        let train_mc, test_mc = Stc_process.Montecarlo.split data ~at:1000 in
        let train = Device_data.of_montecarlo ~specs train_mc in
        let test = Device_data.of_montecarlo ~specs test_mc in
        let counts, _ = Compaction.eliminate config ~train ~test ~dropped:both in
        [
          Printf.sprintf "correlated rho=%.1f" rho;
          Printf.sprintf "%.1f%%" (100.0 *. Device_data.yield_fraction test);
          Report.pct (Metrics.escape_pct counts);
          Report.pct (Metrics.loss_pct counts);
          Report.pct (Metrics.guard_pct counts);
        ])
      [ 0.0; 0.5; 0.9 ]
  in
  (* defect injection: train on the clean population, test on a defective
     one — do structural faults escape the compacted flow? *)
  let train, _ = Lazy.force mems_data in
  let defective_mc =
    Stc_process.Process_model.defective_draws ~seed:78 device
      { Stc_process.Process_model.rate = 0.05; severity = 3.0 }
      ~n:1000
  in
  let defective = Device_data.of_montecarlo ~specs defective_mc in
  let counts, _ = Compaction.eliminate config ~train ~test:defective ~dropped:both in
  let row_defect =
    [
      "5% injected gross defects";
      Printf.sprintf "%.1f%%" (100.0 *. Device_data.yield_fraction defective);
      Report.pct (Metrics.escape_pct counts);
      Report.pct (Metrics.loss_pct counts);
      Report.pct (Metrics.guard_pct counts);
    ]
  in
  print_string
    (Report.table
       ~header:[ "population"; "test yield"; "escape"; "loss"; "guard" ]
       (rows_corr @ [ row_defect ]))

(* ------------------------------------------------------------------ *)
(* Boundary-biased enrichment at equal simulation budget               *)
(* ------------------------------------------------------------------ *)

let boundary_enrichment () =
  section
    "Boundary-biased enrichment: acceptance-boundary density and \
     guard-band quality at equal simulation budget (op-amp)";
  let module Enrich = Stc_process.Enrich in
  let train_u, _ = Lazy.force opamp_data in
  let specs = Device_data.specs train_u in
  let limits = Experiment.spec_limits specs in
  let pilot = Stdlib.max 10 (opamp_train_n / 4) in
  let t0 = Unix.gettimeofday () in
  let train_e, test, stats =
    Experiment.generate_opamp_enriched ~seed:2005 ~pilot
      ~n_train:opamp_train_n ~n_test:opamp_test_n ()
  in
  let t_enrich = Unix.gettimeofday () -. t0 in
  Printf.printf
    "[enriched %d op-amp instances (pilot %d, %d proposals, acceptance \
     %.2f) in %.1f s]\n"
    (stats.Enrich.pilot + stats.Enrich.enriched)
    stats.Enrich.pilot stats.Enrich.proposals stats.Enrich.acceptance_rate
    t_enrich;
  (* boundary density: fraction of instances whose worst normalised
     margin sits within [width] pilot-sigmas of a spec limit; sigmas
     come from the uniform population so both arms use one yardstick *)
  let sigmas =
    Array.init (Array.length specs) (fun j ->
        Stc_numerics.Stats.stddev (Device_data.spec_column train_u j))
  in
  let width = 0.5 in
  let density data =
    let values = Device_data.values data in
    let hits =
      Array.fold_left
        (fun acc row ->
          let m = Enrich.margin_of_specs ~limits ~sigmas row in
          if Float.abs m <= width then acc + 1 else acc)
        0 values
    in
    float_of_int hits /. float_of_int (Stdlib.max 1 (Array.length values))
  in
  let d_uniform = density train_u and d_enriched = density train_e in
  (* same elimination on each training set, judged on one shared
     uniform test population: does boundary-focused data buy a better
     guard band at the same number of simulations? *)
  let dropped = [| 3; 7 |] in
  let config = Experiment.opamp_config in
  let counts_u, _ = Compaction.eliminate config ~train:train_u ~test ~dropped in
  let counts_e, _ = Compaction.eliminate config ~train:train_e ~test ~dropped in
  let yield_u = 100.0 *. Device_data.yield_fraction train_u in
  let wyield_e = 100.0 *. Device_data.weighted_yield_fraction train_e in
  let raw_yield_e = 100.0 *. Device_data.yield_fraction train_e in
  let row name d yield counts =
    [
      name;
      Printf.sprintf "%.1f%%" (100.0 *. d);
      Printf.sprintf "%.1f%%" yield;
      Report.pct (Metrics.escape_pct counts);
      Report.pct (Metrics.loss_pct counts);
      Report.pct (Metrics.guard_pct counts);
    ]
  in
  print_string
    (Report.table
       ~header:
         [
           "training population"; "boundary density"; "est. yield";
           "escape"; "loss"; "guard";
         ]
       [
         row "uniform" d_uniform yield_u counts_u;
         row "boundary-enriched (weighted)" d_enriched wyield_e counts_e;
       ]);
  Printf.printf
    "enriched boundary density %.2fx uniform (width %.1f sigma); raw \
     enriched yield %.1f%% vs importance-weighted %.1f%% (uniform %.1f%%)\n"
    (d_enriched /. Stdlib.max 1e-9 d_uniform)
    width raw_yield_e wyield_e yield_u

(* ------------------------------------------------------------------ *)


let () =
  Printf.printf
    "Specification Test Compaction reproduction harness (%s scale)\n"
    (if full_scale then "full paper" else "reduced; set STC_FULL=1 for paper");
  table2 ();
  table3 ();
  cost_analysis ();
  figure3 ();
  ablation_grid ();
  ablation_guard_width ();
  ablation_adaptive_guard ();
  ablation_process_model ();
  table1 ();
  figure5 ();
  greedy_opamp ();
  figure6 ();
  ablation_ordering ();
  ablation_learner ();
  learner_zoo ();
  ablation_regression ();
  boundary_enrichment ();
  Printf.printf "\ndone.\n"
