module Obs = Stc_obs.Registry
module Trace = Stc_obs.Trace

(* Greedy-loop observability: one span per examined candidate (with
   train/validate child spans and an accept/reject marker), counters
   for the decisions, and latency histograms for the two expensive
   phases. *)
let m_candidates = Obs.counter "stc_compaction_candidates_total"
let m_accepted = Obs.counter "stc_compaction_accepted_total"
let m_rejected = Obs.counter "stc_compaction_rejected_total"
let m_replayed = Obs.counter "stc_compaction_replayed_total"
let h_train = Obs.histogram "stc_compaction_train_s"
let h_validate = Obs.histogram "stc_compaction_validate_s"
let g_last_error = Obs.gauge "stc_compaction_last_error"

type learner = Learner.spec =
  | Epsilon_svr of { c : float; epsilon : float; gamma : float option }
  | C_svc of { c : float; gamma : float option }
  | Mlp of Stc_learn.Mlp.config

type config = {
  learner : learner;
  tolerance : float;
  guard_fraction : float;
  grid : Grid_compact.config option;
  measured_guard : bool;
}

let default_config =
  {
    learner = Epsilon_svr { c = 10.0; epsilon = 0.1; gamma = None };
    tolerance = 0.01;
    guard_fraction = 0.01;
    grid = None;
    measured_guard = true;
  }

type flow = {
  specs : Spec.t array;
  kept : int array;
  dropped : int array;
  band : Guard_band.t option;
  guard_fraction : float;
  measured_guard : bool;
}

let identity_flow specs =
  {
    specs;
    kept = Array.init (Array.length specs) (fun i -> i);
    dropped = [||];
    band = None;
    guard_fraction = 0.0;
    measured_guard = false;
  }

let maybe_grid config features labels =
  match config.grid with
  | None -> (features, labels)
  | Some grid_config ->
    let r = Grid_compact.compact ~config:grid_config ~features ~labels () in
    (r.Grid_compact.features, r.Grid_compact.labels)

(* Labels for "instance passes every dropped spec", judged against
   ranges perturbed by [fraction] (0 = nominal). *)
let dropped_labels data ~dropped ~fraction =
  let specs = Device_data.specs data in
  let judged =
    if fraction = 0.0 then specs
    else Array.map (fun s -> Spec.perturb s ~fraction) specs
  in
  Device_data.pass_labels_with data ~specs:judged ~subset:dropped

(* [train fraction] fits one classifier for "passes every dropped
   spec", judged against ranges perturbed by [fraction]. *)
let dropped_trainer config data ~dropped =
  if Array.length dropped = 0 then
    invalid_arg "Compaction.train_predictor: empty dropped set";
  let kept = Device_data.kept data ~dropped in
  let features = Device_data.features data ~keep:kept in
  fun fraction ->
    let labels = dropped_labels data ~dropped ~fraction in
    let features', labels' = maybe_grid config features labels in
    Learner.train config.learner ~features:features' ~labels:labels'

(* Without a guard the nominal model is the band; with one, the band is
   the tight/loose pair and the nominal model is not part of it. *)
let train_band (config : config) train =
  if config.guard_fraction = 0.0 then Guard_band.single_model (train 0.0)
  else
    Guard_band.of_models
      ~tight:(train (-.config.guard_fraction))
      ~loose:(train config.guard_fraction)

let train_predictor config data ~dropped =
  let train = dropped_trainer config data ~dropped in
  let nominal = train 0.0 in
  let band =
    train_band config (fun fraction ->
        if fraction = 0.0 then nominal else train fraction)
  in
  (band, Guard_band.predict nominal)

let make_flow config data ~dropped =
  let kept = Device_data.kept data ~dropped in
  let band =
    if Array.length dropped = 0 then None
    else Some (train_band config (dropped_trainer config data ~dropped))
  in
  {
    specs = Device_data.specs data;
    kept;
    dropped = Array.copy dropped;
    band;
    guard_fraction = config.guard_fraction;
    measured_guard = config.measured_guard;
  }

(* Three-way verdict on the explicitly measured (kept) specs. *)
let measured_verdict flow row =
  let delta = if flow.measured_guard then flow.guard_fraction else 0.0 in
  let worst = ref Guard_band.Good in
  Array.iter
    (fun j ->
      let spec = flow.specs.(j) in
      let v = row.(j) in
      let inside_loose =
        if delta = 0.0 then Spec.passes spec v
        else Spec.passes (Spec.perturb spec ~fraction:delta) v
      in
      if not inside_loose then worst := Guard_band.Bad
      else begin
        let inside_tight =
          if delta = 0.0 then Spec.passes spec v
          else Spec.passes (Spec.perturb spec ~fraction:(-.delta)) v
        in
        if not inside_tight then begin
          match !worst with
          | Guard_band.Good -> worst := Guard_band.Guard
          | Guard_band.Guard | Guard_band.Bad -> ()
        end
      end)
    flow.kept;
  !worst

let flow_verdict flow row =
  let measured = measured_verdict flow row in
  match measured with
  | Guard_band.Bad -> Guard_band.Bad
  | Guard_band.Guard | Guard_band.Good ->
    let model_verdict =
      match flow.band with
      | None -> Guard_band.Good
      | Some band ->
        let features =
          Array.map (fun j -> Spec.normalize flow.specs.(j) row.(j)) flow.kept
        in
        Guard_band.classify band features
    in
    (match (measured, model_verdict) with
     | Guard_band.Good, v -> v
     | Guard_band.Guard, Guard_band.Bad -> Guard_band.Bad
     | Guard_band.Guard, (Guard_band.Good | Guard_band.Guard) ->
       Guard_band.Guard
     | Guard_band.Bad, _ -> assert false)

let evaluate_flow flow data =
  if Array.length (Device_data.specs data) <> Array.length flow.specs then
    invalid_arg "Compaction.evaluate_flow: spec count mismatch";
  let n = Device_data.n_instances data in
  let truth = Array.init n (fun i -> Device_data.passes_all data ~instance:i) in
  let verdicts =
    Array.init n (fun i -> flow_verdict flow (Device_data.instance_row data i))
  in
  Metrics.tally ~truth ~verdicts

let prediction_error model data ~kept ~dropped =
  let n = Device_data.n_instances data in
  if n = 0 then 0.0
  else begin
    let wrong = ref 0 in
    for i = 0 to n - 1 do
      let truth =
        if Device_data.passes_subset data ~instance:i ~subset:dropped then 1
        else -1
      in
      let features = Device_data.normalized_row data ~instance:i ~keep:kept in
      if model features <> truth then incr wrong
    done;
    float_of_int !wrong /. float_of_int n
  end

type step = {
  spec_index : int;
  accepted : bool;
  error : float;
}

type result = {
  flow : flow;
  steps : step list;
  config : config;
}

let eliminate config ~train ~test ~dropped =
  let flow = make_flow config train ~dropped in
  (evaluate_flow flow test, flow)

(* Canonical byte string covering everything a greedy decision can
   depend on: the config, the examination order, and both populations
   (the accept/reject decisions read the test data, so it must bind
   the journal too). *)
let journal_fingerprint config ~train ~test ~order =
  let b = Buffer.create 8192 in
  let adds s =
    Buffer.add_string b s;
    Buffer.add_char b ' '
  in
  let addf v = adds (Printf.sprintf "%.17g" v) in
  let addi i = adds (string_of_int i) in
  (match config.learner with
   | Epsilon_svr { c; epsilon; gamma } ->
     adds "svr";
     addf c;
     addf epsilon;
     (match gamma with None -> adds "auto" | Some g -> addf g)
   | C_svc { c; gamma } ->
     adds "svc";
     addf c;
     (match gamma with None -> adds "auto" | Some g -> addf g)
   | Mlp m ->
     adds "mlp";
     addi m.Stc_learn.Mlp.hidden;
     addi m.Stc_learn.Mlp.epochs;
     addf m.Stc_learn.Mlp.rate;
     addf m.Stc_learn.Mlp.momentum;
     addi m.Stc_learn.Mlp.seed);
  addf config.tolerance;
  addf config.guard_fraction;
  (match config.grid with
   | None -> adds "nogrid"
   | Some g ->
     adds "grid";
     addi g.Grid_compact.resolution;
     addf g.Grid_compact.clip_lo;
     addf g.Grid_compact.clip_hi);
  adds (if config.measured_guard then "mg1" else "mg0");
  (* decisions are validated on the test data; journals written while
     that was a config choice hash this token, so it stays to keep them
     resumable *)
  adds "vtest";
  adds "order";
  Array.iter addi order;
  let add_population data =
    Array.iter
      (fun (s : Spec.t) ->
        adds s.Spec.name;
        adds s.Spec.unit_label;
        addf s.Spec.nominal;
        addf s.Spec.range.Spec.lower;
        addf s.Spec.range.Spec.upper)
      (Device_data.specs data);
    Array.iter (Array.iter addf) (Device_data.values data)
  in
  adds "train";
  add_population train;
  adds "test";
  add_population test;
  Journal.fingerprint_hex (Buffer.contents b)

let greedy ?(order = Order.By_failure_count) ?journal ?(replay = [||]) config
    ~train ~test =
  let examination = Order.compute order train in
  if Array.length replay > Array.length examination then
    invalid_arg
      (Printf.sprintf
         "Compaction.greedy: journal has %d steps but this run examines \
          only %d specs"
         (Array.length replay) (Array.length examination));
  let journal_write what = function
    | Ok () -> ()
    | Error e ->
      failwith (Printf.sprintf "Compaction.greedy: %s: %s" what e)
  in
  let dropped = ref [] in
  let steps = ref [] in
  Array.iteri
    (fun i candidate ->
      let accepted, error =
        if i < Array.length replay then begin
          (* journaled decision: skip the training entirely *)
          let e = replay.(i) in
          if e.Journal.spec_index <> candidate then
            invalid_arg
              (Printf.sprintf
                 "Compaction.greedy: journal step %d examined spec %d but \
                  this run examines spec %d (order or data mismatch)"
                 i e.Journal.spec_index candidate);
          Obs.Counter.incr m_replayed;
          (e.Journal.accepted, e.Journal.error)
        end
        else
          Trace.with_span
            (Printf.sprintf "compaction.candidate.%d" candidate)
            (fun () ->
              let trial = Array.of_list (List.rev (candidate :: !dropped)) in
              (* the nominal model of [make_flow]'s trainer: it depends
                 on the trial set alone *)
              let nominal =
                Trace.with_span "compaction.train" (fun () ->
                    Obs.Histogram.time h_train (fun () ->
                        Guard_band.predict
                          (dropped_trainer config train ~dropped:trial 0.0)))
              in
              let kept = Device_data.kept train ~dropped:trial in
              let error =
                Trace.with_span "compaction.validate" (fun () ->
                    Obs.Histogram.time h_validate (fun () ->
                        prediction_error nominal test ~kept
                          ~dropped:trial))
              in
              let accepted = error <= config.tolerance in
              Obs.Counter.incr m_candidates;
              Obs.Counter.incr (if accepted then m_accepted else m_rejected);
              Obs.Gauge.set g_last_error error;
              (* zero-length marker so the decision is visible in the
                 trace itself, nested under this candidate's span *)
              Trace.with_span
                (if accepted then "compaction.accept" else "compaction.reject")
                (fun () -> ());
              (match journal with
               | None -> ()
               | Some w ->
                 journal_write "journal append"
                   (Journal.append w
                      { Journal.spec_index = candidate; accepted; error }));
              (accepted, error))
      in
      if accepted then dropped := candidate :: !dropped;
      steps := { spec_index = candidate; accepted; error } :: !steps)
    examination;
  (match journal with
   | None -> ()
   | Some w -> journal_write "journal finish" (Journal.finish w));
  let final_dropped = Array.of_list (List.rev !dropped) in
  let flow =
    Trace.with_span "compaction.final_flow" (fun () ->
        make_flow config train ~dropped:final_dropped)
  in
  { flow; steps = List.rev !steps; config }
