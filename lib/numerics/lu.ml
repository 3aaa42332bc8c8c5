exception Singular of int

type t = {
  lu : Mat.t;          (* packed L (unit diagonal, below) and U (on/above) *)
  perm : int array;    (* row permutation *)
  sign : int;          (* permutation parity, for det *)
}

(* Unchecked loads and stores of the packed matrix, for the loops below
   whose bounds were checked on entry. *)
let[@inline] get (d : float array) i = Array.unsafe_get d i
let[@inline] set (d : float array) i (v : float) = Array.unsafe_set d i v

(* Doolittle LU with partial pivoting, in place: entries below the
   diagonal become L, the diagonal and above become U. Each pivot first
   lists the columns right of the diagonal where its row is non-zero,
   and the rows below update only those: an exact zero in the pivot row
   would subtract a zero product, which changes nothing unless the entry
   is -0.0. MNA matrices never hold one: they are stamped by adding to
   +0.0, and eliminating entries that are not -0.0 cannot produce one.
   The pivot row does not change during its step, so the list holds for
   every row below it. An exactly-zero entry below a finite pivot gets
   the multiplier [dik *. pk], the same signed zero as [dik /. pk]
   without the division, and updates nothing. *)
let factor_in_place a perm cols =
  let n = a.Mat.rows in
  if a.Mat.cols <> n then invalid_arg "Lu.factor: matrix not square";
  let d = a.Mat.data in
  if Array.length d <> n * n then invalid_arg "Lu.factor: data length mismatch";
  if Array.length perm <> n then invalid_arg "Lu.factor: permutation length mismatch";
  if Array.length cols < n then invalid_arg "Lu.factor: column buffer too short";
  (* the checks above keep every index below in bounds *)
  for i = 0 to n - 1 do
    Array.unsafe_set perm i i
  done;
  let sign = ref 1 in
  for k = 0 to n - 1 do
    let rk = k * n in
    (* pivot search in column k, keeping the best modulus so far *)
    let pivot = ref k and best = ref (Float.abs (get d (rk + k))) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (get d ((i * n) + k)) in
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
        let t = get d (rk + j) in
        set d (rk + j) (get d (rp + j));
        set d (rp + j) t
      done;
      let t = Array.unsafe_get perm k in
      Array.unsafe_set perm k (Array.unsafe_get perm p);
      Array.unsafe_set perm p t;
      sign := - !sign
    end;
    let pk = get d (rk + k) in
    let nc = ref 0 in
    for j = k + 1 to n - 1 do
      if get d (rk + j) <> 0.0 then begin
        Array.unsafe_set cols !nc j;
        incr nc
      end
    done;
    let nc = !nc and finite_pivot = pk -. pk = 0.0 in
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let dik = get d (ri + k) in
      if dik = 0.0 && finite_pivot then set d (ri + k) (dik *. pk)
      else begin
        let lik = dik /. pk in
        set d (ri + k) lik;
        if lik <> 0.0 then
          for c = 0 to nc - 1 do
            let j = Array.unsafe_get cols c in
            set d (ri + j) (get d (ri + j) -. (lik *. get d (rk + j)))
          done
      end
    done
  done;
  !sign

let solve_into lu perm b x =
  let n = lu.Mat.rows in
  let d = lu.Mat.data in
  if Array.length b <> n || Array.length x <> n || Array.length perm <> n
     || lu.Mat.cols <> n || Array.length d <> n * n
  then invalid_arg "Lu.solve: dimension mismatch";
  (* every empty array is the same one, and no entry of it aliases *)
  if x == b && n > 0 then invalid_arg "Lu.solve_into: solution must not alias the rhs";
  (* the checks above keep every unchecked index below in bounds *)
  (* apply permutation *)
  for i = 0 to n - 1 do
    x.(i) <- b.(Array.unsafe_get perm i)
  done;
  (* forward substitution, L has unit diagonal *)
  for i = 1 to n - 1 do
    let ri = i * n in
    let acc = ref (Array.unsafe_get x i) in
    for j = 0 to i - 1 do
      acc := !acc -. (get d (ri + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i !acc
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    let ri = i * n in
    let acc = ref (Array.unsafe_get x i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (get d (ri + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i (!acc /. get d (ri + i))
  done

let factor a =
  let n, _ = Mat.dims a in
  let lu = Mat.copy a and perm = Array.make n 0 in
  let sign = factor_in_place lu perm (Array.make n 0) in
  { lu; perm; sign }

let solve f b =
  let x = Vec.create (Array.length f.perm) 0.0 in
  solve_into f.lu f.perm b x;
  x

let det f =
  let n, _ = Mat.dims f.lu in
  let d = ref (float_of_int f.sign) in
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
