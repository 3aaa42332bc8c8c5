module Obs = Stc_obs.Registry

let m_kernel_evals = Obs.counter "stc_svm_kernel_evals_total"

(* libsvm's EPSILON_SVR formulation: 2l variables [α; α*] with extended
   labels [+1; −1], p = [ε − z; ε + z], Q_st = y_s y_t K(s mod l, t mod l). *)
let train ?(c = 1.0) ?(epsilon = 0.1) ?gamma ?(eps = 1e-3) ~x ~y () =
  let l = Array.length x in
  if l = 0 then invalid_arg "Svr.train: empty training set";
  if Array.length y <> l then invalid_arg "Svr.train: x/y length mismatch";
  if c <= 0.0 then invalid_arg "Svr.train: c must be positive";
  if epsilon < 0.0 then invalid_arg "Svr.train: epsilon must be non-negative";
  let dim = Array.length x.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> dim then invalid_arg "Svr.train: ragged inputs")
    x;
  let gamma =
    match gamma with Some g -> g | None -> Kernel.median_gamma x
  in
  let n = 2 * l in
  let ys = Array.init n (fun s -> if s < l then 1.0 else -1.0) in
  let base s = if s < l then s else s - l in
  let fx = Flat.of_rows x in
  (* rows s and s+l differ only in sign pattern, so the underlying
     kernel row is computed once and shared between them *)
  let krows = Array.make l [||] in
  let kernel_row bs =
    if Array.length krows.(bs) = 0 then begin
      Obs.Counter.add m_kernel_evals l;
      let row = Array.create_float l in
      Flat.rbf_row fx ~gamma bs row;
      krows.(bs) <- row
    end;
    krows.(bs)
  in
  let cache =
    Row_cache.create ~row_bytes:(8 * n) (fun s ->
        let krow = kernel_row (base s) in
        (* ys values are exactly ±1, so the sign products reduce to
           IEEE-exact negations: bit-identical to the multiplication *)
        let row = Array.make n 0.0 in
        let flip = s >= l in
        for t = 0 to l - 1 do
          let k = Array.unsafe_get krow t in
          let pos = if flip then -.k else k in
          Array.unsafe_set row t pos;
          Array.unsafe_set row (t + l) (-.pos)
        done;
        row)
  in
  Obs.Counter.add m_kernel_evals n (* the diagonal below *);
  let problem =
    {
      Smo.size = n;
      q_row = (fun s -> Row_cache.get cache s);
      q_diag =
        Array.init n (fun s ->
            let xs = x.(base s) in
            Kernel.rbf gamma xs xs);
      p =
        Array.init n (fun s ->
            if s < l then epsilon -. y.(s) else epsilon +. y.(s - l));
      y = ys;
      c;
    }
  in
  let sol = Smo.solve ~eps problem in
  let sv = ref [] and coef = ref [] in
  for i = l - 1 downto 0 do
    let d = sol.Smo.alpha.(i) -. sol.Smo.alpha.(i + l) in
    if d <> 0.0 then begin
      sv := x.(i) :: !sv;
      coef := d :: !coef
    end
  done;
  {
    Model.gamma;
    sv = Flat.of_rows (Array.of_list !sv);
    coef = Array.of_list !coef;
    b = -.sol.Smo.rho;
  }
