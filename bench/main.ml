(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation section (Sec. 5), then times the pipeline stages
   with Bechamel.

   Scale: by default the op-amp populations are reduced (the paper's
   5000+1000 instances cost ~5 minutes of MNA simulation); run with
   STC_FULL=1 in the environment to reproduce at full paper scale.
   All seeds are fixed — output is deterministic. *)

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
module Journal = Stc.Journal
module Rng = Stc_numerics.Rng
module Json = Stc_obs.Json
module Obs = Stc_obs.Registry

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

(* ------------------------------------------------------------------ *)
(* Machine-readable results: every section runs against a freshly reset
   metric registry, so its flattened metrics are the section's own
   counts, and lands as {name, params, wall_s, metrics} in one of
   BENCH_compaction.json / BENCH_svm.json / BENCH_floor.json.          *)
(* ------------------------------------------------------------------ *)

let bench_groups = [ "compaction"; "svm"; "floor"; "net"; "process" ]
let bench_records : (string * Json.t) list ref = ref []

let p_int k v = (k, Json.Num (float_of_int v))
let p_bool k v = (k, Json.Bool v)

let opamp_params =
  [
    p_int "n_train" opamp_train_n;
    p_int "n_test" opamp_test_n;
    p_bool "full_scale" full_scale;
  ]

let mems_params =
  [
    p_int "n_train" mems_train_n;
    p_int "n_test" mems_test_n;
    p_bool "full_scale" full_scale;
  ]

let bench ~group ~name ?(params = []) f =
  if not (List.mem group bench_groups) then
    invalid_arg (Printf.sprintf "bench: unknown group %S" group);
  Obs.reset ();
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  (* the section's own latency also lands in histogram form, so even a
     purely presentational section exports a non-empty metrics object *)
  Obs.Histogram.observe (Obs.histogram "stc_bench_section_s") wall_s;
  let metrics =
    List.filter_map
      (fun (k, v) -> if v = 0.0 then None else Some (k, Json.Num v))
      (Obs.flatten ())
  in
  bench_records :=
    ( group,
      Json.Obj
        [
          ("name", Json.Str name);
          ("params", Json.Obj params);
          ("wall_s", Json.Num wall_s);
          ("metrics", Json.Obj metrics);
        ] )
    :: !bench_records;
  r

let write_bench_json () =
  List.iter
    (fun group ->
      let sections =
        List.rev
          (List.filter_map
             (fun (g, j) -> if g = group then Some j else None)
             !bench_records)
      in
      let doc =
        Json.Obj
          [
            ("schema", Json.Str "stc-bench-1");
            ("scale", Json.Str (if full_scale then "full" else "reduced"));
            ("sections", Json.List sections);
          ]
      in
      let path = Printf.sprintf "BENCH_%s.json" group in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Json.to_string doc);
          output_char oc '\n');
      Printf.printf "[%d sections -> %s]\n" (List.length sections) path)
    bench_groups

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
  let g name v = Obs.Gauge.set (Obs.gauge name) v in
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
            let tag k = Printf.sprintf "stc_bench_zoo_%s_%s_%s" lname oname k in
            g (tag "dropped") (float_of_int dropped);
            g (tag "escape_pct") (Metrics.escape_pct counts);
            g (tag "loss_pct") (Metrics.loss_pct counts);
            g (tag "train_s") wall;
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
    width raw_yield_e wyield_e yield_u;
  (* headline numbers for BENCH_process.json *)
  let g name v = Obs.Gauge.set (Obs.gauge name) v in
  g "stc_bench_enrich_density_uniform" d_uniform;
  g "stc_bench_enrich_density_enriched" d_enriched;
  g "stc_bench_enrich_density_ratio"
    (d_enriched /. Stdlib.max 1e-9 d_uniform);
  g "stc_bench_enrich_density_improved"
    (if d_enriched > d_uniform then 1.0 else 0.0);
  g "stc_bench_enrich_yield_uniform_pct" yield_u;
  g "stc_bench_enrich_yield_weighted_pct" wyield_e;
  g "stc_bench_enrich_yield_abs_err_pct" (Float.abs (wyield_e -. yield_u));
  g "stc_bench_enrich_acceptance_rate" stats.Enrich.acceptance_rate;
  g "stc_bench_enrich_boundary_hit_rate" stats.Enrich.boundary_hit_rate;
  g "stc_bench_enrich_generate_s" t_enrich;
  g "stc_bench_enrich_escape_pct_uniform" (Metrics.escape_pct counts_u);
  g "stc_bench_enrich_escape_pct_enriched" (Metrics.escape_pct counts_e);
  g "stc_bench_enrich_loss_pct_uniform" (Metrics.loss_pct counts_u);
  g "stc_bench_enrich_loss_pct_enriched" (Metrics.loss_pct counts_e);
  g "stc_bench_enrich_guard_pct_uniform" (Metrics.guard_pct counts_u);
  g "stc_bench_enrich_guard_pct_enriched" (Metrics.guard_pct counts_e)

(* ------------------------------------------------------------------ *)
(* SMO hot path: warm starts + flat kernels + parallel CV              *)
(* ------------------------------------------------------------------ *)

let svm_hotpath () =
  section
    "SVM hot path: warm-started, flat-storage SMO (cold vs warm) and \
     parallel cross-validation";
  let train, test = Lazy.force opamp_data in
  let order = Order.Given Experiment.opamp_examination_order in
  let c_iter = Obs.counter "stc_smo_iterations_total" in
  let c_kev = Obs.counter "stc_svm_kernel_evals_total" in
  let c_warm = Obs.counter "stc_smo_warm_starts_total" in
  let h_train = Obs.histogram "stc_compaction_train_s" in
  (* the same reduced-scale greedy compaction as [greedy_opamp], run
     cold then warm; SMO train time is the per-candidate training
     histogram, so validation and final-flow cost is excluded *)
  let run warm_start =
    let config = { Experiment.opamp_config with Compaction.warm_start } in
    let t0 = Obs.Histogram.sum h_train in
    let i0 = Obs.Counter.get c_iter and k0 = Obs.Counter.get c_kev in
    let w0 = Unix.gettimeofday () in
    let r = Compaction.greedy ~order config ~train ~test in
    let wall = Unix.gettimeofday () -. w0 in
    ( r,
      wall,
      Obs.Histogram.sum h_train -. t0,
      Obs.Counter.get c_iter - i0,
      Obs.Counter.get c_kev - k0 )
  in
  let cold_r, cold_wall, cold_train, cold_iter, cold_kev = run false in
  let warm0 = Obs.Counter.get c_warm in
  let warm_r, warm_wall, warm_train, warm_iter, warm_kev = run true in
  let warm_starts = Obs.Counter.get c_warm - warm0 in
  let flows_identical =
    Stc_floor.Flow_io.to_string cold_r.Compaction.flow
    = Stc_floor.Flow_io.to_string warm_r.Compaction.flow
  in
  let rate evals s = float_of_int evals /. Stdlib.max 1e-9 s in
  print_string
    (Report.table
       ~header:
         [ "greedy run"; "SMO train"; "wall"; "iterations"; "kernel evals/s" ]
       [
         [
           "cold (warm_start=false)";
           Printf.sprintf "%.2f s" cold_train;
           Printf.sprintf "%.2f s" cold_wall;
           string_of_int cold_iter;
           Printf.sprintf "%.2fM" (rate cold_kev cold_train /. 1e6);
         ];
         [
           "warm (warm_start=true)";
           Printf.sprintf "%.2f s" warm_train;
           Printf.sprintf "%.2f s" warm_wall;
           string_of_int warm_iter;
           Printf.sprintf "%.2fM" (rate warm_kev warm_train /. 1e6);
         ];
       ]);
  Printf.printf
    "SMO train %.2fx faster warm; %d iterations saved across %d warm \
     starts; flows bit-identical: %b\n"
    (cold_train /. Stdlib.max 1e-9 warm_train)
    (cold_iter - warm_iter) warm_starts flows_identical;
  (* parallel grid search on a pool, against the serial path *)
  let dropped = [| 3; 7 |] in
  let kept = [| 0; 1; 2; 4; 5; 6; 8; 9; 10 |] in
  let n_cv = Stdlib.min 360 (Device_data.n_instances train) in
  let x = Array.sub (Device_data.features train ~keep:kept) 0 n_cv in
  let y = Array.sub (Device_data.pass_labels train ~subset:dropped) 0 n_cv in
  let cs = [| 1.0; 10.0 |] and gammas = [| 0.5; 2.0 |] in
  let grid rng_seed pool =
    let t0 = Unix.gettimeofday () in
    let r =
      Stc_svm.Cross_val.grid_search_svc ?pool (Rng.create rng_seed) ~x ~y
        ~folds:3 ~cs ~gammas
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let serial, t_serial = grid 17 None in
  let domains = Stdlib.min 4 (Domain.recommended_domain_count ()) in
  let parallel, t_parallel =
    Stc_process.Pool.with_pool ~domains (fun pool -> grid 17 (Some pool))
  in
  let cv_identical =
    serial.Stc_svm.Cross_val.c = parallel.Stc_svm.Cross_val.c
    && serial.Stc_svm.Cross_val.gamma = parallel.Stc_svm.Cross_val.gamma
    && Int64.equal
         (Int64.bits_of_float serial.Stc_svm.Cross_val.accuracy)
         (Int64.bits_of_float parallel.Stc_svm.Cross_val.accuracy)
  in
  Printf.printf
    "grid search (%d points x 3 folds, %d rows): serial %.3f s, %d domains \
     %.3f s (%.2fx); winners bit-identical: %b\n"
    (Array.length cs * Array.length gammas)
    n_cv t_serial domains t_parallel
    (t_serial /. Stdlib.max 1e-9 t_parallel)
    cv_identical;
  (* headline numbers for BENCH_svm.json *)
  let g name v = Obs.Gauge.set (Obs.gauge name) v in
  g "stc_bench_smo_train_cold_s" cold_train;
  g "stc_bench_smo_train_warm_s" warm_train;
  g "stc_bench_smo_train_speedup"
    (cold_train /. Stdlib.max 1e-9 warm_train);
  g "stc_bench_smo_iterations_saved" (float_of_int (cold_iter - warm_iter));
  g "stc_bench_kernel_evals_per_s_cold" (rate cold_kev cold_train);
  g "stc_bench_kernel_evals_per_s_warm" (rate warm_kev warm_train);
  g "stc_bench_flows_bit_identical" (if flows_identical then 1.0 else 0.0);
  g "stc_bench_cv_serial_s" t_serial;
  g "stc_bench_cv_parallel_s" t_parallel;
  g "stc_bench_cv_bit_identical" (if cv_identical then 1.0 else 0.0)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let microbenchmarks () =
  section "Bechamel micro-benchmarks (ns per run)";
  let open Bechamel in
  let train, _ = Lazy.force mems_data in
  let room = Array.init 5 (fun k -> k) in
  let both =
    Array.append Experiment.mems_cold_indices Experiment.mems_hot_indices
  in
  let features = Device_data.features train ~keep:room in
  let labels = Device_data.pass_labels train ~subset:both in
  let small_x = Array.sub features 0 200 in
  let small_y = Array.sub labels 0 200 in
  let svr_model =
    Stc_svm.Svr.train ~c:10.0 ~epsilon:0.1 ~x:small_x
      ~y:(Array.map float_of_int small_y)
      ()
  in
  let flow = Compaction.make_flow Experiment.mems_config train ~dropped:both in
  let row0 = Device_data.instance_row train 0 in
  let mems_geometry = Stc_mems.Geometry.nominal in
  let opamp_sys =
    Stc_circuit.Mna.build
      (Stc_circuit.Opamp.netlist Stc_circuit.Opamp.nominal
         Stc_circuit.Opamp.Open_loop_gain)
  in
  let opamp_x0 =
    Stc_circuit.Opamp.initial_guess Stc_circuit.Opamp.nominal opamp_sys
  in
  let tests =
    [
      Test.make ~name:"mems_tri_temperature_simulation"
        (Staged.stage (fun () ->
             ignore (Stc_mems.Measure_mems.tri_temperature mems_geometry)));
      Test.make ~name:"svr_train_200x5"
        (Staged.stage (fun () ->
             ignore
               (Stc_svm.Svr.train ~c:10.0 ~epsilon:0.1 ~x:small_x
                  ~y:(Array.map float_of_int small_y)
                  ())));
      Test.make ~name:"svr_predict"
        (Staged.stage (fun () -> ignore (Stc_svm.Svr.predict svr_model features.(0))));
      Test.make ~name:"flow_verdict"
        (Staged.stage (fun () -> ignore (Compaction.flow_verdict flow row0)));
      Test.make ~name:"grid_compact_1000x5"
        (Staged.stage (fun () -> ignore (Grid_compact.compact ~features ~labels ())));
      Test.make ~name:"opamp_dc_operating_point"
        (Staged.stage (fun () ->
             ignore (Stc_circuit.Dc.solve ~x0:opamp_x0 opamp_sys)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-38s %14.0f ns/run\n" name est
          | Some _ | None -> Printf.printf "%-38s (no estimate)\n" name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* Floor serving: save/load round trip + throughput vs domain count    *)
(* ------------------------------------------------------------------ *)

let floor_serving () =
  section "Floor serving: persisted op-amp flow, throughput vs domains";
  let train, test = Lazy.force opamp_data in
  let dropped = [| 0; 1; 2; 5; 6; 8; 9; 10 |] in
  let flow = Compaction.make_flow Experiment.opamp_config train ~dropped in
  (* serve what production would serve: the flow after a disk round trip *)
  let flow =
    match Stc_floor.Flow_io.to_string flow with
    | Error e -> failwith e
    | Ok text ->
      Printf.printf "persisted flow: %d bytes, byte-stable %b\n"
        (String.length text)
        (match Stc_floor.Flow_io.of_string text with
         | Ok reloaded -> Stc_floor.Flow_io.to_string reloaded = Ok text
         | Error e -> failwith e);
      (match Stc_floor.Flow_io.of_string text with
       | Ok reloaded -> reloaded
       | Error e -> failwith e)
  in
  let base_rows = Device_data.values test in
  let n_base = Array.length base_rows in
  let replicas = if full_scale then 200 else 100 in
  let stream =
    Array.init (n_base * replicas) (fun i -> base_rows.(i mod n_base))
  in
  Printf.printf "(%d hardware threads available to this process)\n"
    (Domain.recommended_domain_count ());
  let serve domains =
    Stc_floor.Floor.with_engine
      ~config:{ Stc_floor.Floor.batch_size = 4096; domains }
      flow
      (fun engine ->
        let outcomes = Stc_floor.Floor.process engine stream in
        ( Array.map (fun o -> o.Stc_floor.Floor.verdict) outcomes,
          Stc_floor.Floor.stats engine ))
  in
  let reference, base_stats = serve 1 in
  let base_rate =
    float_of_int base_stats.Stc_floor.Floor.devices
    /. base_stats.Stc_floor.Floor.elapsed_s
  in
  let rows =
    List.map
      (fun domains ->
        let verdicts, stats =
          if domains = 1 then (reference, base_stats) else serve domains
        in
        let identical =
          Array.for_all2 Guard_band.equal_verdict verdicts reference
        in
        let rate =
          float_of_int stats.Stc_floor.Floor.devices
          /. stats.Stc_floor.Floor.elapsed_s
        in
        [
          string_of_int domains;
          string_of_int stats.Stc_floor.Floor.devices;
          Printf.sprintf "%.3f s" stats.Stc_floor.Floor.elapsed_s;
          Printf.sprintf "%.0f" rate;
          Printf.sprintf "%.2fx" (rate /. base_rate);
          (if identical then "yes" else "NO");
        ])
      [ 1; 2; 4 ]
  in
  print_string
    (Report.table
       ~header:[ "domains"; "devices"; "elapsed"; "devices/s"; "speedup";
                 "verdicts = 1-domain" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Resilience: what do the safety nets cost when nothing goes wrong?   *)
(* ------------------------------------------------------------------ *)

let resilience () =
  section
    "Resilience: journaling, supervision and deadline overhead (target <5%)";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let overhead base t =
    if base <= 0.0 then "-"
    else Printf.sprintf "%+.1f%%" (100.0 *. ((t /. base) -. 1.0))
  in
  let train, test = Lazy.force opamp_data in
  let config = Experiment.opamp_config in
  let order = Order.Given Experiment.opamp_examination_order in
  (* 1. write-ahead journaling on the greedy loop: every decided step is
     serialised and flushed before the loop advances *)
  let plain, t_plain =
    time (fun () -> Compaction.greedy ~order config ~train ~test)
  in
  let path = Filename.temp_file "stc_bench" ".stcj" in
  let ord = Order.compute order train in
  let fingerprint = Compaction.journal_fingerprint config ~train ~test ~order:ord in
  let journalled, t_journal =
    time (fun () ->
        match Journal.create ~path ~fingerprint with
        | Error e -> failwith e
        | Ok w ->
          Fun.protect
            ~finally:(fun () -> Journal.close w)
            (fun () -> Compaction.greedy_resumable ~journal:w ~order config ~train ~test))
  in
  let identical =
    Stc_floor.Flow_io.to_string plain.Compaction.flow
    = Stc_floor.Flow_io.to_string journalled.Compaction.flow
  in
  (* 2. what the journal buys: resuming replays the decisions instead of
     retraining the SVMs *)
  let replay =
    match Journal.load ~path with Ok r -> r.Journal.entries | Error e -> failwith e
  in
  Sys.remove path;
  let resumed, t_resume =
    time (fun () -> Compaction.greedy_resumable ~replay ~order config ~train ~test)
  in
  let resume_identical =
    Stc_floor.Flow_io.to_string plain.Compaction.flow
    = Stc_floor.Flow_io.to_string resumed.Compaction.flow
  in
  (* 3. pool supervision: deadline polling + heartbeats vs the plain
     participating dispatch. Tasks carry real work (~a verdict's worth
     of arithmetic) so the measurement is dispatch overhead, not
     scheduler noise on empty jobs. *)
  let pool_jobs = 50 and pool_n = 512 in
  let sink = ref 0.0 in
  let task i =
    let acc = ref 0.0 in
    for k = 1 to 200 do
      acc := !acc +. sin (float_of_int (i + k))
    done;
    sink := !acc
  in
  let (), t_pool_plain =
    time (fun () ->
        Stc_process.Pool.with_pool ~domains:4 (fun pool ->
            for _ = 1 to pool_jobs do
              Stc_process.Pool.run pool ~n:pool_n task
            done))
  in
  let (), t_pool_deadline =
    time (fun () ->
        Stc_process.Pool.with_pool ~domains:4 (fun pool ->
            for _ = 1 to pool_jobs do
              Stc_process.Pool.run ~deadline_s:60.0 pool ~n:pool_n task
            done))
  in
  (* 4. floor batch deadline: the per-batch clock check on a deadline
     that never fires *)
  let flow =
    Compaction.make_flow config train ~dropped:[| 0; 1; 2; 5; 6; 8; 9; 10 |]
  in
  let base_rows = Device_data.values test in
  let n_base = Array.length base_rows in
  let stream = Array.init (n_base * 50) (fun i -> base_rows.(i mod n_base)) in
  let serve ?batch_deadline_s () =
    Stc_floor.Floor.with_engine
      ~config:{ Stc_floor.Floor.batch_size = 4096; domains = 1 }
      flow
      (fun engine ->
        ignore (Stc_floor.Floor.process ?batch_deadline_s engine stream);
        (Stc_floor.Floor.stats engine).Stc_floor.Floor.elapsed_s)
  in
  let t_floor_plain = serve () in
  let t_floor_deadline = serve ~batch_deadline_s:3600.0 () in
  print_string
    (Report.table
       ~header:[ "stage"; "baseline"; "with safety net"; "overhead" ]
       [
         [
           Printf.sprintf "greedy + journal (%d steps)" (Array.length replay);
           Printf.sprintf "%.2f s" t_plain;
           Printf.sprintf "%.2f s" t_journal;
           overhead t_plain t_journal;
         ];
         [
           Printf.sprintf "pool dispatch x%d (~deadline_s)" pool_jobs;
           Printf.sprintf "%.3f s" t_pool_plain;
           Printf.sprintf "%.3f s" t_pool_deadline;
           overhead t_pool_plain t_pool_deadline;
         ];
         [
           Printf.sprintf "floor serving %d rows (~batch_deadline_s)"
             (Array.length stream);
           Printf.sprintf "%.3f s" t_floor_plain;
           Printf.sprintf "%.3f s" t_floor_deadline;
           overhead t_floor_plain t_floor_deadline;
         ];
       ]);
  Printf.printf
    "journalled flow bit-identical: %b; resume replayed %d steps in %.3f s \
     (%.0fx faster than retraining); resumed flow bit-identical: %b\n"
    identical (Array.length replay) t_resume
    (t_plain /. Stdlib.max 1e-9 t_resume)
    resume_identical

(* ------------------------------------------------------------------ *)
(* QA harness: generator and differential-oracle throughput            *)
(* ------------------------------------------------------------------ *)

let qa_harness () =
  section "QA harness: generator + differential-oracle throughput";
  let flows = if full_scale then 400 else 100 in
  let rows_per_flow = 16 in
  let st = Stc_qa.Gen.state ~seed:2005 in
  let t0 = Unix.gettimeofday () in
  let pairs =
    Array.init flows (fun _ -> Stc_qa.Gen.flow_with_rows ~rows_per_flow st)
  in
  let t_gen = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun (flow, rows) ->
      ignore (Stc_qa.Oracle.reference_outcomes flow rows))
    pairs;
  let t_ref = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let mismatches =
    Array.fold_left
      (fun acc (flow, rows) ->
        match
          Stc_qa.Oracle.floor_matches ~batch_sizes:[ 7 ] ~domain_counts:[ 1 ]
            flow rows
        with
        | Ok () -> acc
        | Error _ -> acc + 1)
      0 pairs
  in
  let t_diff = Unix.gettimeofday () -. t0 in
  let rate n t = if t <= 0.0 then "-" else Printf.sprintf "%.0f" (float_of_int n /. t) in
  let n_rows = flows * rows_per_flow in
  print_string
    (Report.table
       ~header:[ "stage"; "work"; "elapsed"; "rate" ]
       [
         [ "generate flow+rows"; string_of_int flows;
           Printf.sprintf "%.3f s" t_gen; rate flows t_gen ^ " flows/s" ];
         [ "reference binner"; string_of_int n_rows;
           Printf.sprintf "%.3f s" t_ref; rate n_rows t_ref ^ " rows/s" ];
         [ "differential check"; string_of_int flows;
           Printf.sprintf "%.3f s" t_diff; rate flows t_diff ^ " flows/s" ];
       ]);
  Printf.printf "differential mismatches: %d (must be 0)\n" mismatches

(* ------------------------------------------------------------------ *)
(* Network serving: the loopback line protocol vs the direct engine    *)
(* ------------------------------------------------------------------ *)

let net_rows = if full_scale then 20000 else 4000
let net_batch = 512

let net_serving () =
  section "Network serving: loopback line protocol vs direct engine";
  let st = Stc_qa.Gen.state ~seed:2005 in
  let flow, base = Stc_qa.Gen.flow_with_rows ~rows_per_flow:64 st in
  let n_base = Array.length base in
  let rows = Array.init net_rows (fun i -> base.(i mod n_base)) in
  let chunks =
    List.init
      ((net_rows + net_batch - 1) / net_batch)
      (fun k ->
        Array.sub rows (k * net_batch)
          (Stdlib.min net_batch (net_rows - (k * net_batch))))
  in
  let t_direct =
    Stc_floor.Floor.with_engine flow (fun engine ->
        let retest = Stc_floor.Floor.full_test flow in
        let t0 = Unix.gettimeofday () in
        ignore (Stc_floor.Floor.process ~retest engine rows);
        Unix.gettimeofday () -. t0)
  in
  let registry = Stc_net.Registry.create () in
  (match Stc_net.Registry.add registry ~name:"dut" flow with
   | Ok _ -> ()
   | Error e -> failwith e);
  let time_wire send =
    Stc_net.Server.with_server registry (fun server ->
        let c = Stc_net.Client.connect ~port:(Stc_net.Server.port server) () in
        Fun.protect
          ~finally:(fun () -> Stc_net.Client.quit c)
          (fun () ->
            let t0 = Unix.gettimeofday () in
            List.iter
              (fun chunk ->
                match send c chunk with
                | Ok (_ : Stc_floor.Floor.outcome array) -> ()
                | Error e -> failwith e)
              chunks;
            Unix.gettimeofday () -. t0))
  in
  let t_batch = time_wire (fun c -> Stc_net.Client.bin_batch c ~flow:"dut") in
  let t_stream = time_wire (fun c -> Stc_net.Client.stream c ~flow:"dut") in
  Stc_net.Registry.shutdown registry;
  let rate t =
    if t <= 0.0 then "-"
    else Printf.sprintf "%.0f rows/s" (float_of_int net_rows /. t)
  in
  let relative t =
    if t_direct <= 0.0 then "-" else Printf.sprintf "%.2fx" (t /. t_direct)
  in
  print_string
    (Report.table
       ~header:[ "path"; "rows"; "elapsed"; "rate"; "vs direct" ]
       [
         [ "direct Floor.process"; string_of_int net_rows;
           Printf.sprintf "%.3f s" t_direct; rate t_direct; "1.00x" ];
         [ Printf.sprintf "loopback BATCH (%d/req)" net_batch;
           string_of_int net_rows; Printf.sprintf "%.3f s" t_batch;
           rate t_batch; relative t_batch ];
         [ Printf.sprintf "loopback BIN pipeline (%d/flush)" net_batch;
           string_of_int net_rows; Printf.sprintf "%.3f s" t_stream;
           rate t_stream; relative t_stream ];
       ])

(* ------------------------------------------------------------------ *)
(* Overload: a well-behaved client's throughput and tail latency while
   a connection flood hammers the same server, with the admission cap
   doing its job (flood shed at accept) vs. an open door (every flood
   connection admitted and competing for the engine).                  *)
(* ------------------------------------------------------------------ *)

let overload_batches = if full_scale then 48 else 16
let overload_batch = 128
let overload_flood = 16

let net_overload () =
  section "Overload: well-behaved client under a connection flood";
  let st = Stc_qa.Gen.state ~seed:2005 in
  let flow, base = Stc_qa.Gen.flow_with_rows ~rows_per_flow:64 st in
  let n_base = Array.length base in
  let chunk = Array.init overload_batch (fun i -> base.(i mod n_base)) in
  let shed_total () =
    Obs.Counter.get (Obs.counter "stc_net_shed_total")
  in
  let run ~max_connections =
    let registry = Stc_net.Registry.create () in
    (match Stc_net.Registry.add registry ~name:"dut" flow with
     | Ok _ -> ()
     | Error e -> failwith e);
    let config =
      { Stc_net.Server.default_config with Stc_net.Server.max_connections }
    in
    let shed0 = shed_total () in
    let result =
      Stc_net.Server.with_server ~config registry (fun server ->
          let port = Stc_net.Server.port server in
          (* admit the measured client before the flood arrives *)
          let c = Stc_net.Client.connect ~port () in
          Fun.protect
            ~finally:(fun () -> Stc_net.Client.quit c)
            (fun () ->
              let stop = Atomic.make false in
              let flood =
                Array.init overload_flood (fun _ ->
                    Thread.create
                      (fun () ->
                        try
                          let fc = Stc_net.Client.connect ~port () in
                          Fun.protect
                            ~finally:(fun () -> Stc_net.Client.close fc)
                            (fun () ->
                              let rec spin () =
                                if not (Atomic.get stop) then
                                  match
                                    Stc_net.Client.bin_batch fc ~flow:"dut"
                                      chunk
                                  with
                                  | Ok _ -> spin ()
                                  | Error _ -> () (* shed: ERR busy *)
                              in
                              spin ())
                        with _ -> ())
                      ())
              in
              Fun.protect
                ~finally:(fun () ->
                  Atomic.set stop true;
                  Array.iter Thread.join flood)
                (fun () ->
                  (* let the flood actually arrive before measuring *)
                  Thread.delay 0.05;
                  let lat = Array.make overload_batches 0.0 in
                  let t0 = Unix.gettimeofday () in
                  for i = 0 to overload_batches - 1 do
                    let s = Unix.gettimeofday () in
                    (match Stc_net.Client.bin_batch c ~flow:"dut" chunk with
                     | Ok _ -> ()
                     | Error e -> failwith ("measured client: " ^ e));
                    lat.(i) <- Unix.gettimeofday () -. s
                  done;
                  let total = Unix.gettimeofday () -. t0 in
                  Array.sort compare lat;
                  let pct p =
                    let n = Array.length lat in
                    lat.(Stdlib.min (n - 1)
                           (int_of_float (ceil (p *. float_of_int n)) - 1))
                  in
                  (total, pct 0.50, pct 0.99))))
    in
    Stc_net.Registry.shutdown registry;
    let shed = shed_total () - shed0 in
    (result, shed)
  in
  let (t_shed, p50_shed, p99_shed), shed_n = run ~max_connections:4 in
  let (t_open, p50_open, p99_open), open_n = run ~max_connections:256 in
  let rows_done = overload_batches * overload_batch in
  let rate t =
    if t <= 0.0 then "-"
    else Printf.sprintf "%.0f rows/s" (float_of_int rows_done /. t)
  in
  let ms t = Printf.sprintf "%.1f ms" (1000.0 *. t) in
  print_string
    (Report.table
       ~header:[ "admission"; "shed"; "rate"; "p50"; "p99" ]
       [
         [ Printf.sprintf "cap 4 (%d flooders shed)" overload_flood;
           string_of_int shed_n; rate t_shed; ms p50_shed; ms p99_shed ];
         [ Printf.sprintf "cap 256 (%d flooders admitted)" overload_flood;
           string_of_int open_n; rate t_open; ms p50_open; ms p99_open ];
       ]);
  Printf.printf
    "flood amplification without shedding: p99 %.1fx, throughput %.2fx\n"
    (if p99_shed > 0.0 then p99_open /. p99_shed else 0.0)
    (if t_open > 0.0 then t_shed /. t_open else 0.0)

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf
    "Specification Test Compaction reproduction harness (%s scale)\n"
    (if full_scale then "full paper" else "reduced; set STC_FULL=1 for paper");
  let c = bench ~group:"compaction" in
  let s = bench ~group:"svm" in
  let f = bench ~group:"floor" in
  c ~name:"table2_mems_specs" ~params:mems_params table2;
  c ~name:"table3_temperature_elimination" ~params:mems_params table3;
  c ~name:"cost_analysis" ~params:mems_params cost_analysis;
  c ~name:"figure3_acceptance_region" figure3;
  c ~name:"ablation_grid_compaction" ~params:mems_params ablation_grid;
  c ~name:"ablation_guard_width" ~params:mems_params ablation_guard_width;
  c ~name:"ablation_adaptive_guard" ~params:mems_params ablation_adaptive_guard;
  c ~name:"ablation_process_model" ~params:mems_params ablation_process_model;
  c ~name:"table1_opamp_specs" ~params:opamp_params table1;
  c ~name:"figure5_cumulative_elimination" ~params:opamp_params figure5;
  c ~name:"greedy_opamp" ~params:opamp_params greedy_opamp;
  c ~name:"figure6_training_size" ~params:opamp_params figure6;
  c ~name:"ablation_ordering" ~params:opamp_params ablation_ordering;
  s ~name:"svm_hotpath" ~params:opamp_params svm_hotpath;
  s ~name:"ablation_learner" ~params:opamp_params ablation_learner;
  s ~name:"learner_zoo" ~params:opamp_params learner_zoo;
  s ~name:"ablation_regression_baseline" ~params:opamp_params ablation_regression;
  f ~name:"floor_serving" ~params:opamp_params floor_serving;
  c ~name:"resilience_overhead" ~params:opamp_params resilience;
  let pr = bench ~group:"process" in
  pr ~name:"boundary_enrichment"
    ~params:
      (p_int "pilot" (Stdlib.max 10 (opamp_train_n / 4)) :: opamp_params)
    boundary_enrichment;
  f ~name:"qa_harness"
    ~params:[ p_int "flows" (if full_scale then 400 else 100); p_int "rows_per_flow" 16 ]
    qa_harness;
  s ~name:"microbenchmarks" ~params:mems_params microbenchmarks;
  let n = bench ~group:"net" in
  n ~name:"loopback_vs_direct"
    ~params:[ p_int "rows" net_rows; p_int "batch" net_batch ]
    net_serving;
  n ~name:"overload"
    ~params:
      [
        p_int "batches" overload_batches;
        p_int "batch" overload_batch;
        p_int "flood" overload_flood;
      ]
    net_overload;
  write_bench_json ();
  Printf.printf "\ndone.\n"
