exception Singular of int

type t = {
  lu : Mat.t;          (* packed L (unit diagonal, below) and U (on/above) *)
  perm : int array;    (* row permutation *)
  sign : float;        (* permutation parity, for det *)
}

(* Doolittle LU with partial pivoting, in place: entries below the
   diagonal become L, the diagonal and above become U. An exact zero in
   the pivot row is skipped in the update: it would subtract a zero
   product, which changes nothing unless the entry is -0.0. MNA matrices
   never hold one: they are stamped by adding to +0.0, and eliminating
   entries that are not -0.0 cannot produce one. *)
let factor_in_place a perm =
  let n = a.Mat.rows in
  if a.Mat.cols <> n then invalid_arg "Lu.factor: matrix not square";
  if Array.length perm <> n then invalid_arg "Lu.factor: permutation length mismatch";
  let d = a.Mat.data in
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  let sign = ref 1.0 in
  for k = 0 to n - 1 do
    let rk = k * n in
    (* pivot search in column k, keeping the best modulus so far *)
    let pivot = ref k and best = ref (Float.abs d.(rk + k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs d.((i * n) + k) in
      if v > !best then begin
        pivot := i;
        best := v
      end
    done;
    if !best < 1e-300 then raise (Singular k);
    let p = !pivot in
    if p <> k then begin
      let rp = p * n in
      for j = 0 to n - 1 do
        let t = d.(rk + j) in
        d.(rk + j) <- d.(rp + j);
        d.(rp + j) <- t
      done;
      let t = perm.(k) in
      perm.(k) <- perm.(p);
      perm.(p) <- t;
      sign := -. !sign
    end;
    let pk = d.(rk + k) in
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let lik = d.(ri + k) /. pk in
      d.(ri + k) <- lik;
      if lik <> 0.0 then
        for j = k + 1 to n - 1 do
          let ukj = d.(rk + j) in
          if ukj <> 0.0 then d.(ri + j) <- d.(ri + j) -. (lik *. ukj)
        done
    done
  done;
  !sign

let solve_into lu perm b x =
  let n = lu.Mat.rows in
  if Array.length b <> n || Array.length x <> n || Array.length perm <> n then
    invalid_arg "Lu.solve: dimension mismatch";
  if x == b then invalid_arg "Lu.solve_into: solution must not alias the rhs";
  let d = lu.Mat.data in
  (* apply permutation *)
  for i = 0 to n - 1 do
    x.(i) <- b.(perm.(i))
  done;
  (* forward substitution, L has unit diagonal *)
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (d.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (d.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !acc /. d.((i * n) + i)
  done

let factor a =
  let n, _ = Mat.dims a in
  let lu = Mat.copy a and perm = Array.make n 0 in
  let sign = factor_in_place lu perm in
  { lu; perm; sign }

let solve f b =
  let x = Vec.create (Array.length f.perm) 0.0 in
  solve_into f.lu f.perm b x;
  x

let det f =
  let n, _ = Mat.dims f.lu in
  let d = ref f.sign in
  for i = 0 to n - 1 do
    d := !d *. Mat.get f.lu i i
  done;
  !d

let solve_system a b = solve (factor a) b

let least_squares a b =
  let at = Mat.transpose a in
  let ata = Mat.mul at a in
  let atb = Mat.mul_vec at b in
  solve_system ata atb
