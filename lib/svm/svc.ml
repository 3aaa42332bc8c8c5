module Obs = Stc_obs.Registry

let m_kernel_evals = Obs.counter "stc_svm_kernel_evals_total"

let train ?(c = 1.0) ?gamma ?(eps = 1e-3) ~x ~y () =
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
  let gamma =
    match gamma with Some g -> g | None -> Kernel.median_gamma x
  in
  let yf = Array.map float_of_int y in
  let fx = Flat.of_rows x in
  (* Q_it = y_i y_t K(i, t) *)
  let cache =
    Row_cache.create ~row_bytes:(8 * l) (fun i ->
        Obs.Counter.add m_kernel_evals l;
        let row = Array.create_float l in
        Flat.rbf_row fx ~gamma i row;
        let yi = yf.(i) in
        for t = 0 to l - 1 do
          row.(t) <- yi *. yf.(t) *. row.(t)
        done;
        row)
  in
  Obs.Counter.add m_kernel_evals l (* the diagonal below *);
  let problem =
    {
      Smo.size = l;
      q_row = (fun i -> Row_cache.get cache i);
      q_diag = Array.map (fun xi -> Kernel.rbf gamma xi xi) x;
      p = Array.make l (-1.0);
      y = yf;
      c;
    }
  in
  let sol = Smo.solve ~eps problem in
  let sv = ref [] and coef = ref [] in
  for i = l - 1 downto 0 do
    if sol.Smo.alpha.(i) > 0.0 then begin
      sv := x.(i) :: !sv;
      coef := (yf.(i) *. sol.Smo.alpha.(i)) :: !coef
    end
  done;
  {
    Model.gamma;
    sv = Flat.of_rows (Array.of_list !sv);
    coef = Array.of_list !coef;
    b = -.sol.Smo.rho;
  }
