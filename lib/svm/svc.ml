module Obs = Stc_obs.Registry

let m_kernel_evals = Obs.counter "stc_svm_kernel_evals_total"
let g_cache_hit_rate = Obs.gauge "stc_svm_cache_hit_rate"

type model = {
  kernel : Kernel.t;
  sv : Flat.t; (* support vectors, one row each *)
  coef : float array; (* y_i * alpha_i *)
  b : float;
}

let train ?(c = 1.0) ?kernel ?(eps = 1e-3) ~x ~y () =
  let l = Array.length x in
  if l = 0 then invalid_arg "Svc.train: empty training set";
  if Array.length y <> l then invalid_arg "Svc.train: x/y length mismatch";
  let dim = Array.length x.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> dim then invalid_arg "Svc.train: ragged inputs")
    x;
  Array.iter
    (fun yi ->
      if yi <> 1 && yi <> -1 then invalid_arg "Svc.train: labels must be +/-1")
    y;
  if c <= 0.0 then invalid_arg "Svc.train: c must be positive";
  if Array.for_all (fun yi -> yi = y.(0)) y then
    invalid_arg "Svc.train: training data contains a single class";
  let kernel =
    match kernel with
    | Some k -> k
    | None -> Kernel.rbf (Kernel.median_gamma x)
  in
  let yf = Array.map float_of_int y in
  let fx = Flat.of_rows x in
  let q i t = yf.(i) *. yf.(t) *. Kernel.eval_rows kernel fx i t in
  let cache =
    Row_cache.create ~row_bytes:(8 * l) (fun i ->
        Obs.Counter.add m_kernel_evals l;
        Array.init l (fun t -> q i t))
  in
  Obs.Counter.add m_kernel_evals l (* the diagonal below *);
  let problem =
    {
      Smo.size = l;
      q_row = (fun i -> Row_cache.get cache i);
      q_diag = Array.init l (fun i -> Kernel.eval_rows kernel fx i i);
      p = Array.make l (-1.0);
      y = yf;
      c;
    }
  in
  let sol = Smo.solve ~eps problem in
  let accesses = Row_cache.hits cache + Row_cache.misses cache in
  if accesses > 0 then
    Obs.Gauge.set g_cache_hit_rate
      (float_of_int (Row_cache.hits cache) /. float_of_int accesses);
  let sv = ref [] and coef = ref [] in
  for i = l - 1 downto 0 do
    if sol.Smo.alpha.(i) > 0.0 then begin
      sv := x.(i) :: !sv;
      coef := (yf.(i) *. sol.Smo.alpha.(i)) :: !coef
    end
  done;
  {
    kernel;
    sv = Flat.of_rows (Array.of_list !sv);
    coef = Array.of_list !coef;
    b = -.sol.Smo.rho;
  }

let decision m input = Kernel.decision m.kernel m.sv ~coef:m.coef ~b:m.b input

let predict m input = if decision m input >= 0.0 then 1 else -1

let n_support m = Flat.n_rows m.sv
let dim m = Flat.dim m.sv
let bias m = m.b
let kernel m = m.kernel
let dual_coefs m = m.coef

type raw = {
  raw_kernel : Kernel.t;
  raw_sv : float array array;
  raw_coef : float array;
  raw_b : float;
}

let to_raw m =
  {
    raw_kernel = m.kernel;
    raw_sv = Array.init (Flat.n_rows m.sv) (Flat.row m.sv);
    raw_coef = m.coef;
    raw_b = m.b;
  }

let of_raw r =
  if Array.length r.raw_sv <> Array.length r.raw_coef then
    invalid_arg "of_raw: sv/coef length mismatch";
  { kernel = r.raw_kernel; sv = Flat.of_rows r.raw_sv; coef = r.raw_coef; b = r.raw_b }
