type t = {
  specs : Spec.t array;
  values : float array array;
  weights : float array option;
}

let make ~specs ~values =
  let k = Array.length specs in
  Array.iteri
    (fun i row ->
      if Array.length row <> k then
        invalid_arg
          (Printf.sprintf "Device_data.make: row %d has %d values, expected %d"
             i (Array.length row) k))
    values;
  { specs; values; weights = None }

let specs t = t.specs
let values t = t.values
let n_instances t = Array.length t.values
let n_specs t = Array.length t.specs

let weight t i = match t.weights with None -> 1.0 | Some w -> w.(i)

let value t ~instance ~spec = t.values.(instance).(spec)
let instance_row t i = t.values.(i)
let spec_column t j = Array.map (fun row -> row.(j)) t.values

let normalized_row t ~instance ~keep =
  Array.map
    (fun j -> Spec.normalize t.specs.(j) t.values.(instance).(j))
    keep

let features t ~keep =
  Array.init (n_instances t) (fun i -> normalized_row t ~instance:i ~keep)

let kept t ~dropped =
  let k = n_specs t in
  let is_dropped = Array.make k false in
  Array.iter
    (fun j ->
      if j < 0 || j >= k then invalid_arg "Device_data.kept: bad spec index";
      if is_dropped.(j) then
        invalid_arg "Device_data.kept: duplicate dropped index";
      is_dropped.(j) <- true)
    dropped;
  Array.of_list (List.filter (fun j -> not is_dropped.(j)) (List.init k Fun.id))

let passes_all t ~instance =
  let row = t.values.(instance) in
  let k = Array.length t.specs in
  let rec check j = j >= k || (Spec.passes t.specs.(j) row.(j) && check (j + 1)) in
  check 0

let passes_subset t ~instance ~subset =
  let row = t.values.(instance) in
  Array.for_all (fun j -> Spec.passes t.specs.(j) row.(j)) subset

let pass_labels t ~subset =
  Array.init (n_instances t) (fun i ->
      if passes_subset t ~instance:i ~subset then 1 else -1)

let pass_labels_with t ~specs ~subset =
  if Array.length specs <> Array.length t.specs then
    invalid_arg "Device_data.pass_labels_with: spec count mismatch";
  Array.init (n_instances t) (fun i ->
      let row = t.values.(i) in
      if Array.for_all (fun j -> Spec.passes specs.(j) row.(j)) subset then 1
      else -1)

let yield_fraction t =
  let n = n_instances t in
  if n = 0 then 0.0
  else begin
    let good = ref 0 in
    for i = 0 to n - 1 do
      if passes_all t ~instance:i then incr good
    done;
    float_of_int !good /. float_of_int n
  end

(* Self-normalised importance estimate Σ wᵢ·[pass]ᵢ / Σ wᵢ; coincides
   with [yield_fraction] when no weights are attached. *)
let weighted_yield_fraction t =
  let n = n_instances t in
  if n = 0 then 0.0
  else begin
    let good = ref 0.0 and total = ref 0.0 in
    for i = 0 to n - 1 do
      let w = weight t i in
      total := !total +. w;
      if passes_all t ~instance:i then good := !good +. w
    done;
    if !total = 0.0 then 0.0 else !good /. !total
  end

let of_montecarlo ~specs (dataset : Stc_process.Montecarlo.dataset) =
  (* attach weights only when some instance is actually reweighted, so
     uniform populations keep their historical all-unweighted shape *)
  let t = make ~specs ~values:dataset.specs in
  let w = dataset.weights in
  if Array.for_all (fun x -> x = 1.0) w then t
  else if
    Array.length w <> Array.length t.values
    || Array.exists (fun x -> x < 0.0 || not (Float.is_finite x)) w
  then
    invalid_arg
      "Device_data.of_montecarlo: need one finite non-negative weight per \
       instance"
  else { t with weights = Some w }
