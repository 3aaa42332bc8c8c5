type t = { rows : int; cols : int; data : Complex.t array }

exception Singular of int

let create rows cols x =
  if rows < 0 || cols < 0 then invalid_arg "Cmat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) x }

let init rows cols f =
  let m = create rows cols Complex.zero in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let copy m = { m with data = Array.copy m.data }

let get m i j =
  assert (i >= 0 && i < m.rows && j >= 0 && j < m.cols);
  m.data.((i * m.cols) + j)

let set m i j x =
  assert (i >= 0 && i < m.rows && j >= 0 && j < m.cols);
  m.data.((i * m.cols) + j) <- x

let add_to m i j x =
  let k = (i * m.cols) + j in
  m.data.(k) <- Complex.add m.data.(k) x

let combine g c omega =
  let rows, cols = Mat.dims g in
  let rc, cc = Mat.dims c in
  if rc <> rows || cc <> cols then invalid_arg "Cmat.combine: dimension mismatch";
  init rows cols (fun i j ->
      { Complex.re = Mat.get g i j; im = omega *. Mat.get c i j })

let mul_vec m x =
  if m.cols <> Array.length x then invalid_arg "Cmat.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref Complex.zero in
      for j = 0 to m.cols - 1 do
        acc := Complex.add !acc (Complex.mul m.data.((i * m.cols) + j) x.(j))
      done;
      !acc)

(* In-place Gaussian elimination on copies; partial pivoting by modulus. *)
let solve a b0 =
  let n = a.rows in
  if a.cols <> n then invalid_arg "Cmat.solve: matrix not square";
  if Array.length b0 <> n then invalid_arg "Cmat.solve: rhs dimension mismatch";
  let m = copy a in
  let b = Array.copy b0 in
  for k = 0 to n - 1 do
    let pivot = ref k in
    for i = k + 1 to n - 1 do
      if Complex.norm (get m i k) > Complex.norm (get m !pivot k) then pivot := i
    done;
    if Complex.norm (get m !pivot k) < 1e-300 then raise (Singular k);
    if !pivot <> k then begin
      for j = k to n - 1 do
        let t = get m k j in
        set m k j (get m !pivot j);
        set m !pivot j t
      done;
      let t = b.(k) in
      b.(k) <- b.(!pivot);
      b.(!pivot) <- t
    end;
    let pk = get m k k in
    for i = k + 1 to n - 1 do
      let f = Complex.div (get m i k) pk in
      if f <> Complex.zero then begin
        for j = k to n - 1 do
          set m i j (Complex.sub (get m i j) (Complex.mul f (get m k j)))
        done;
        b.(i) <- Complex.sub b.(i) (Complex.mul f b.(k))
      end
    done
  done;
  let x = Array.make n Complex.zero in
  for i = n - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to n - 1 do
      acc := Complex.sub !acc (Complex.mul (get m i j) x.(j))
    done;
    x.(i) <- Complex.div !acc (get m i i)
  done;
  x
