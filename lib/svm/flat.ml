(* Contiguous row-major storage for the SVM kernel hot path.

   One unboxed [float array] of length [n * dim] replaces the boxed
   [float array array]: no per-row indirection, rows adjacent in
   memory, and the inner loops below use [Array.unsafe_get] after a
   single up-front row-index check. Accumulation order is exactly that
   of [Stc_numerics.Vec.dot]/[Vec.dist2] (left to right over
   coordinates, a single running sum) so results are bit-identical to
   the boxed path. *)

type t = { data : float array; n : int; dim : int }

let of_rows rows =
  let n = Array.length rows in
  let dim = if n = 0 then 0 else Array.length rows.(0) in
  Array.iteri
    (fun i r ->
      if Array.length r <> dim then
        invalid_arg
          (Printf.sprintf "Flat.of_rows: ragged row %d (%d <> %d)" i
             (Array.length r) dim))
    rows;
  let data = Array.make (n * dim) 0.0 in
  Array.iteri (fun i r -> Array.blit r 0 data (i * dim) dim) rows;
  { data; n; dim }

let n_rows t = t.n
let dim t = t.dim

let check t i =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Flat: row %d" i)

let get t i j =
  check t i;
  if j < 0 || j >= t.dim then invalid_arg (Printf.sprintf "Flat: col %d" j);
  t.data.((i * t.dim) + j)

let row t i =
  check t i;
  Array.sub t.data (i * t.dim) t.dim

let dot t i j =
  check t i;
  check t j;
  let d = t.dim in
  let data = t.data in
  let bi = i * d and bj = j * d in
  let acc = ref 0.0 in
  for k = 0 to d - 1 do
    acc :=
      !acc +. (Array.unsafe_get data (bi + k) *. Array.unsafe_get data (bj + k))
  done;
  !acc

let dist2 t i j =
  check t i;
  check t j;
  let d = t.dim in
  let data = t.data in
  let bi = i * d and bj = j * d in
  let acc = ref 0.0 in
  for k = 0 to d - 1 do
    let dk = Array.unsafe_get data (bi + k) -. Array.unsafe_get data (bj + k) in
    acc := !acc +. (dk *. dk)
  done;
  !acc

let check_vec t v =
  if Array.length v <> t.dim then
    invalid_arg
      (Printf.sprintf "Flat: vector length %d <> dim %d" (Array.length v) t.dim)

let dot_vec t i v =
  check t i;
  check_vec t v;
  let d = t.dim in
  let data = t.data in
  let bi = i * d in
  let acc = ref 0.0 in
  for k = 0 to d - 1 do
    acc := !acc +. (Array.unsafe_get data (bi + k) *. Array.unsafe_get v k)
  done;
  !acc

let dist2_vec t i v =
  check t i;
  check_vec t v;
  let d = t.dim in
  let data = t.data in
  let bi = i * d in
  let acc = ref 0.0 in
  for k = 0 to d - 1 do
    let dk = Array.unsafe_get data (bi + k) -. Array.unsafe_get v k in
    acc := !acc +. (dk *. dk)
  done;
  !acc

(* The distance and the weighted sum share one function: ocamlopt
   without flambda does not inline across modules, so calling
   [dist2_vec] once per support vector pays a call and a boxed float
   per term. *)
let rbf_decision t ~gamma ~coef ~b v =
  if t.n > 0 then check_vec t v;
  if Array.length coef < t.n then invalid_arg "Flat.rbf_decision: coef too short";
  let d = t.dim in
  let data = t.data in
  let acc = ref b in
  for i = 0 to t.n - 1 do
    let bi = i * d in
    let s = ref 0.0 in
    for k = 0 to d - 1 do
      let dk = Array.unsafe_get data (bi + k) -. Array.unsafe_get v k in
      s := !s +. (dk *. dk)
    done;
    acc := !acc +. (Array.unsafe_get coef i *. exp (-.gamma *. !s))
  done;
  !acc
