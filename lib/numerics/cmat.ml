exception Singular of int

(* [x / y] by Complex.div's scaled formula (the branch on |re| >= |im|),
   written to [re.(k)] and [im.(k)]. *)
let[@inline] div_into re im k xr xi yr yi =
  if Float.abs yr >= Float.abs yi then begin
    let r = yi /. yr in
    let d = yr +. (r *. yi) in
    re.(k) <- (xr +. (r *. xi)) /. d;
    im.(k) <- (xi -. (r *. xr)) /. d
  end
  else begin
    let r = yr /. yi in
    let d = yi +. (r *. yr) in
    re.(k) <- ((r *. xr) +. xi) /. d;
    im.(k) <- ((r *. xi) -. xr) /. d
  end

type buffers = {
  n : int;
  re : float array;  (* n × n row-major, the eliminated matrix *)
  im : float array;
}

let buffers n =
  if n < 0 then invalid_arg "Cmat.buffers: negative size";
  { n; re = Array.make (n * n) 0.0; im = Array.make (n * n) 0.0 }

(* Gaussian elimination with partial pivoting by modulus on split real
   and imaginary parts. Every step is the Complex.t arithmetic of a
   boxed elimination (Complex.sub, Complex.mul, Complex.div, and
   Complex.norm = Float.hypot) with the operations in the same order, so
   the solution is the same bit for bit; only the boxes are gone. The
   right-hand side is eliminated in [br] and [bi], and back
   substitution, from the last row up, replaces each entry with its
   solution: a row reads only the entries below it, which already hold
   theirs. *)
let solve bufs g c ~omega br bi =
  let n = g.Mat.rows in
  if g.Mat.cols <> n then invalid_arg "Cmat.solve: matrix not square";
  if c.Mat.rows <> n || c.Mat.cols <> n then invalid_arg "Cmat.solve: dimension mismatch";
  if Array.length br <> n || Array.length bi <> n then
    invalid_arg "Cmat.solve: rhs dimension mismatch";
  if bufs.n <> n then invalid_arg "Cmat.solve: buffers of another size";
  let { re; im; _ } = bufs in
  Array.blit g.Mat.data 0 re 0 (n * n);
  for k = 0 to (n * n) - 1 do
    im.(k) <- omega *. c.Mat.data.(k)
  done;
  for k = 0 to n - 1 do
    let rk = k * n in
    let pivot = ref k and best = ref (Float.hypot re.(rk + k) im.(rk + k)) in
    for i = k + 1 to n - 1 do
      let ar = re.((i * n) + k) and ai = im.((i * n) + k) in
      (* an exact zero's modulus, 0, never beats the best so far *)
      if ar <> 0.0 || ai <> 0.0 then begin
        let v = Float.hypot ar ai in
        if v > !best then begin
          pivot := i;
          best := v
        end
      end
    done;
    if !best < 1e-300 then raise (Singular k);
    let p = !pivot in
    if p <> k then begin
      let rp = p * n in
      for j = k to n - 1 do
        let tr = re.(rk + j) and ti = im.(rk + j) in
        re.(rk + j) <- re.(rp + j);
        im.(rk + j) <- im.(rp + j);
        re.(rp + j) <- tr;
        im.(rp + j) <- ti
      done;
      let tr = br.(k) and ti = bi.(k) in
      br.(k) <- br.(p);
      bi.(k) <- bi.(p);
      br.(p) <- tr;
      bi.(p) <- ti
    end;
    let pr = re.(rk + k) and pi = im.(rk + k) in
    for i = k + 1 to n - 1 do
      let ri = i * n in
      (* the multiplier takes the eliminated entry's slot, which nothing
         reads again *)
      div_into re im (ri + k) re.(ri + k) im.(ri + k) pr pi;
      let fr = re.(ri + k) and fi = im.(ri + k) in
      if not (fr = 0.0 && fi = 0.0) then begin
        for j = k + 1 to n - 1 do
          let ur = re.(rk + j) and ui = im.(rk + j) in
          re.(ri + j) <- re.(ri + j) -. ((fr *. ur) -. (fi *. ui));
          im.(ri + j) <- im.(ri + j) -. ((fr *. ui) +. (fi *. ur))
        done;
        let ur = br.(k) and ui = bi.(k) in
        br.(i) <- br.(i) -. ((fr *. ur) -. (fi *. ui));
        bi.(i) <- bi.(i) -. ((fr *. ui) +. (fi *. ur))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let ri = i * n in
    let ar = ref br.(i) and ai = ref bi.(i) in
    for j = i + 1 to n - 1 do
      let mr = re.(ri + j) and mi = im.(ri + j) in
      let yr = br.(j) and yi = bi.(j) in
      ar := !ar -. ((mr *. yr) -. (mi *. yi));
      ai := !ai -. ((mr *. yi) +. (mi *. yr))
    done;
    div_into br bi i !ar !ai re.(ri + i) im.(ri + i)
  done
