module Svr = Stc_svm.Svr
module Svc = Stc_svm.Svc
module Kernel = Stc_svm.Kernel
module Stats = Stc_numerics.Stats

type config = {
  learner : Compaction.learner;
  target_guard : float;
}

let default_config =
  {
    learner = Compaction.Epsilon_svr { c = 10.0; epsilon = 0.1; gamma = None };
    target_guard = 0.05;
  }

type t = {
  specs : Spec.t array;
  kept : int array;
  dropped : int array;
  decision : float array -> float;
  margin : float;
}

let resolve_gamma gamma features =
  match gamma with Some g -> g | None -> Kernel.median_gamma features

(* a real-valued decision function for either learner *)
let train_decision learner features labels =
  let all_same = Array.for_all (fun l -> l = labels.(0)) labels in
  if all_same then begin
    let constant = float_of_int labels.(0) in
    fun _ -> constant
  end
  else begin
    match learner with
    | Compaction.Epsilon_svr { c; epsilon; gamma } ->
      let kernel = Kernel.rbf (resolve_gamma gamma features) in
      let y = Array.map float_of_int labels in
      let model = Svr.train ~c ~epsilon ~kernel ~x:features ~y () in
      fun v -> Svr.predict model v
    | Compaction.C_svc { c; gamma } ->
      let kernel = Kernel.rbf (resolve_gamma gamma features) in
      let model = Svc.train ~c ~kernel ~x:features ~y:labels () in
      fun v -> Svc.decision model v
    | Compaction.Mlp mlp_config ->
      let y = Array.map float_of_int labels in
      let model = Stc_learn.Mlp.train ~config:mlp_config ~x:features ~y () in
      fun v -> Stc_learn.Mlp.predict model v
  end

let train ?(config = default_config) data ~dropped =
  if Array.length dropped = 0 then
    invalid_arg "Adaptive_guard.train: empty dropped set";
  if config.target_guard < 0.0 || config.target_guard >= 1.0 then
    invalid_arg "Adaptive_guard.train: target_guard outside [0,1)";
  let specs = Device_data.specs data in
  let kept = Device_data.kept data ~dropped in
  let features = Device_data.features data ~keep:kept in
  let labels = Device_data.pass_labels data ~subset:dropped in
  let decision = train_decision config.learner features labels in
  let magnitudes = Array.map (fun v -> Float.abs (decision v)) features in
  let margin =
    if config.target_guard = 0.0 then 0.0
    else Stats.quantile magnitudes config.target_guard
  in
  { specs; kept; dropped = Array.copy dropped; decision; margin }

let margin t = t.margin

let band t =
  Guard_band.make
    ~tight:(fun v -> if t.decision v >= t.margin then 1 else -1)
    ~loose:(fun v -> if t.decision v > -.t.margin then 1 else -1)

let flow t =
  {
    Compaction.specs = t.specs;
    kept = t.kept;
    dropped = t.dropped;
    band = Some (band t);
    guard_fraction = 0.0;
    measured_guard = false;
  }
