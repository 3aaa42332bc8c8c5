type t = { rows : int; cols : int; data : float array }

let create rows cols x =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) x }

let init rows cols f =
  let m = create rows cols 0.0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let copy m = { m with data = Array.copy m.data }

let get m i j =
  assert (i >= 0 && i < m.rows && j >= 0 && j < m.cols);
  m.data.((i * m.cols) + j)

let set m i j x =
  assert (i >= 0 && i < m.rows && j >= 0 && j < m.cols);
  m.data.((i * m.cols) + j) <- x

let add_to m i j x =
  assert (i >= 0 && i < m.rows && j >= 0 && j < m.cols);
  let k = (i * m.cols) + j in
  m.data.(k) <- m.data.(k) +. x

let dims m = (m.rows, m.cols)

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (Printf.sprintf "Mat.%s: dimension mismatch" name)

let add a b =
  check_same "add" a b;
  { a with data = Array.mapi (fun k x -> x +. b.data.(k)) a.data }

let sub a b =
  check_same "sub" a b;
  { a with data = Array.mapi (fun k x -> x -. b.data.(k)) a.data }

let scale s m = { m with data = Array.map (fun x -> s *. x) m.data }

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: inner dimension mismatch";
  let c = create a.rows b.cols 0.0 in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          let idx = (i * c.cols) + j in
          c.data.(idx) <- c.data.(idx) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  c

let mul_vec m x =
  if m.cols <> Array.length x then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (m.data.((i * m.cols) + j) *. x.(j))
      done;
      !acc)

let of_rows rows =
  let r = Array.length rows in
  if r = 0 then create 0 0 0.0
  else begin
    let c = Array.length rows.(0) in
    Array.iter
      (fun rw ->
        if Array.length rw <> c then invalid_arg "Mat.of_rows: ragged rows")
      rows;
    init r c (fun i j -> rows.(i).(j))
  end
