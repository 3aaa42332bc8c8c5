module Vec = Stc_numerics.Vec

type t =
  | Linear
  | Polynomial of { gamma : float; coef0 : float; degree : int }
  | Rbf of { gamma : float }
  | Sigmoid of { gamma : float; coef0 : float }

let rbf gamma = Rbf { gamma }

let linear = Linear

let eval k x y =
  match k with
  | Linear -> Vec.dot x y
  | Polynomial { gamma; coef0; degree } ->
    ((gamma *. Vec.dot x y) +. coef0) ** float_of_int degree
  | Rbf { gamma } -> exp (-.gamma *. Vec.dist2 x y)
  | Sigmoid { gamma; coef0 } -> tanh ((gamma *. Vec.dot x y) +. coef0)

let eval_rows k rows i j =
  match k with
  | Linear -> Flat.dot rows i j
  | Polynomial { gamma; coef0; degree } ->
    ((gamma *. Flat.dot rows i j) +. coef0) ** float_of_int degree
  | Rbf { gamma } -> exp (-.gamma *. Flat.dist2 rows i j)
  | Sigmoid { gamma; coef0 } -> tanh ((gamma *. Flat.dot rows i j) +. coef0)

let eval_row_vec k rows i v =
  match k with
  | Linear -> Flat.dot_vec rows i v
  | Polynomial { gamma; coef0; degree } ->
    ((gamma *. Flat.dot_vec rows i v) +. coef0) ** float_of_int degree
  | Rbf { gamma } -> exp (-.gamma *. Flat.dist2_vec rows i v)
  | Sigmoid { gamma; coef0 } -> tanh ((gamma *. Flat.dot_vec rows i v) +. coef0)

let decision k sv ~coef ~b x =
  match k with
  | Rbf { gamma } -> Flat.rbf_decision sv ~gamma ~coef ~b x
  | Linear | Polynomial _ | Sigmoid _ ->
    let acc = ref b in
    for i = 0 to Flat.n_rows sv - 1 do
      acc := !acc +. (coef.(i) *. eval_row_vec k sv i x)
    done;
    !acc

let default_gamma ~dim =
  if dim <= 0 then invalid_arg "Kernel.default_gamma: dim must be positive";
  1.0 /. float_of_int dim

let median_gamma x =
  let n = Array.length x in
  if n < 2 then 1.0
  else begin
    let dim = Array.length x.(0) in
    (* deterministic sample of pairs: stride through (i, i + step) *)
    let budget = 2048 in
    let distances = ref [] in
    let count = ref 0 in
    let step = Stdlib.max 1 (n / 64) in
    (try
       for offset = 1 to n - 1 do
         if offset mod step = 0 || offset < 8 then
           for i = 0 to n - 1 - offset do
             if !count < budget then begin
               let d2 = Vec.dist2 x.(i) x.(i + offset) in
               if d2 > 0.0 then begin
                 distances := d2 :: !distances;
                 incr count
               end
             end
             else raise Exit
           done
       done
     with Exit -> ());
    match !distances with
    | [] -> default_gamma ~dim:(Stdlib.max 1 dim)
    | ds ->
      let arr = Array.of_list ds in
      Array.sort compare arr;
      let median = arr.(Array.length arr / 2) in
      if median <= 0.0 then default_gamma ~dim:(Stdlib.max 1 dim)
      else 1.0 /. median
  end

let pp fmt = function
  | Linear -> Format.fprintf fmt "linear"
  | Polynomial { gamma; coef0; degree } ->
    Format.fprintf fmt "poly(gamma=%g, coef0=%g, degree=%d)" gamma coef0 degree
  | Rbf { gamma } -> Format.fprintf fmt "rbf(gamma=%g)" gamma
  | Sigmoid { gamma; coef0 } ->
    Format.fprintf fmt "sigmoid(gamma=%g, coef0=%g)" gamma coef0
