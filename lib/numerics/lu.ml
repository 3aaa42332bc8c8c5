exception Singular of int

type t = {
  lu : Mat.t;          (* packed L (unit diagonal, below) and U (on/above) *)
  perm : int array;    (* row permutation *)
  sign : float;        (* permutation parity, for det *)
}

(* Doolittle LU with partial pivoting, in place: entries below the
   diagonal become L, the diagonal and above become U. *)
let factor_in_place a perm =
  let n, m = Mat.dims a in
  if n <> m then invalid_arg "Lu.factor: matrix not square";
  if Array.length perm <> n then invalid_arg "Lu.factor: permutation length mismatch";
  let d = a.Mat.data in
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  let sign = ref 1.0 in
  for k = 0 to n - 1 do
    (* pivot search in column k *)
    let pivot = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs d.((i * n) + k) > Float.abs d.((!pivot * n) + k) then pivot := i
    done;
    let p = !pivot in
    if Float.abs d.((p * n) + k) < 1e-300 then raise (Singular k);
    if p <> k then begin
      for j = 0 to n - 1 do
        let t = d.((k * n) + j) in
        d.((k * n) + j) <- d.((p * n) + j);
        d.((p * n) + j) <- t
      done;
      let t = perm.(k) in
      perm.(k) <- perm.(p);
      perm.(p) <- t;
      sign := -. !sign
    end;
    let pk = d.((k * n) + k) in
    for i = k + 1 to n - 1 do
      let lik = d.((i * n) + k) /. pk in
      d.((i * n) + k) <- lik;
      if lik <> 0.0 then
        for j = k + 1 to n - 1 do
          d.((i * n) + j) <- d.((i * n) + j) -. (lik *. d.((k * n) + j))
        done
    done
  done;
  !sign

let solve_into lu perm b x =
  let n, _ = Mat.dims lu in
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
