(* Contiguous row-major storage for the SVM kernel hot path.

   One unboxed [float array] of length [n * dim] replaces the boxed
   [float array array]: no per-row indirection, rows adjacent in
   memory, and the inner loops below use [Array.unsafe_get] after a
   single up-front row-index check. Each squared distance sums exactly
   as [Stc_numerics.Vec.dist2] does (left to right over coordinates, a
   single running sum), so results are bit-identical to the boxed
   [Kernel.rbf]. *)

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

let row t i =
  check t i;
  Array.sub t.data (i * t.dim) t.dim

(* The distance and the weighted sum share one function: ocamlopt
   without flambda does not inline across modules, so a distance
   computed by a separate function once per support vector pays a call
   and a boxed float per term. *)
let rbf_decision t ~gamma ~coef ~b v =
  if t.n > 0 && Array.length v <> t.dim then
    invalid_arg
      (Printf.sprintf "Flat: vector length %d <> dim %d" (Array.length v) t.dim);
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

(* One kernel row in one loop, for the same reason as [rbf_decision]. *)
let rbf_row t ~gamma i out =
  check t i;
  if Array.length out < t.n then invalid_arg "Flat.rbf_row: out too short";
  let d = t.dim in
  let data = t.data in
  let bi = i * d in
  for j = 0 to t.n - 1 do
    let bj = j * d in
    let acc = ref 0.0 in
    for k = 0 to d - 1 do
      let dk = Array.unsafe_get data (bi + k) -. Array.unsafe_get data (bj + k) in
      acc := !acc +. (dk *. dk)
    done;
    Array.unsafe_set out j (exp (-.gamma *. !acc))
  done
