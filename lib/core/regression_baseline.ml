module Svr = Stc_svm.Svr
module Kernel = Stc_svm.Kernel

type config = {
  c : float;
  epsilon : float;
  gamma : float option;
}

let default_config = { c = 10.0; epsilon = 0.01; gamma = None }

type t = {
  specs : Spec.t array;
  kept_indices : int array;
  dropped_indices : int array;
  models : Svr.model array;  (* one per dropped spec, normalised targets *)
}

let train ?(config = default_config) data ~dropped =
  if Array.length dropped = 0 then
    invalid_arg "Regression_baseline.train: empty dropped set";
  let specs = Device_data.specs data in
  let kept_indices = Device_data.kept data ~dropped in
  let features = Device_data.features data ~keep:kept_indices in
  let kernel =
    Kernel.rbf
      (match config.gamma with
       | Some g -> g
       | None -> Kernel.median_gamma features)
  in
  let models =
    Array.map
      (fun j ->
        let spec = specs.(j) in
        let y =
          Array.map
            (fun row -> Spec.normalize spec row.(j))
            (Device_data.values data)
        in
        Svr.train ~c:config.c ~epsilon:config.epsilon ~kernel ~x:features ~y ())
      dropped
  in
  { specs; kept_indices; dropped_indices = Array.copy dropped; models }

let predict_values t features =
  Array.mapi
    (fun i j ->
      let normalised = Svr.predict t.models.(i) features in
      Spec.denormalize t.specs.(j) normalised)
    t.dropped_indices

let classify t features =
  let values = predict_values t features in
  let ok = ref true in
  Array.iteri
    (fun i j -> if not (Spec.passes t.specs.(j) values.(i)) then ok := false)
    t.dropped_indices;
  if !ok then 1 else -1

let prediction_error t data =
  let n = Device_data.n_instances data in
  if n = 0 then 0.0
  else begin
    let wrong = ref 0 in
    for i = 0 to n - 1 do
      let truth =
        if Device_data.passes_subset data ~instance:i ~subset:t.dropped_indices
        then 1
        else -1
      in
      let features =
        Device_data.normalized_row data ~instance:i ~keep:t.kept_indices
      in
      if classify t features <> truth then incr wrong
    done;
    float_of_int !wrong /. float_of_int n
  end

let dropped t = Array.copy t.dropped_indices
let kept t = Array.copy t.kept_indices
