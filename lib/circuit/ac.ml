module Mat = Stc_numerics.Mat
module Cmat = Stc_numerics.Cmat

let m_points = Stc_obs.Registry.counter "stc_ac_points_total"

(* The free block is [G_FF + jω C_FF]; its right-hand side at ω is
   [b_F - (G_FP + jω C_FP) v], kept as the part without ω ([r0]) and the
   part ω multiplies by j ([r1]). Complex vectors are split into real
   and imaginary arrays. *)
type solver = {
  g : Mat.t;  (* every unknown: the pinned nodes' KCL rows are read back *)
  c : Mat.t;
  pins : Mna.pin array;
  bp_re : float array;  (* b at each pinned node's KCL row *)
  bp_im : float array;
  v_re : float array;  (* each pinned node's phasor *)
  v_im : float array;
  free : int array;
  gf : Mat.t;
  cf : Mat.t;
  r0_re : float array;
  r0_im : float array;
  r1_re : float array;
  r1_im : float array;
  yr : float array;  (* a point's free right-hand side, then its solution *)
  yi : float array;
  xr : float array;  (* a point's solution, every unknown *)
  xi : float array;
  bufs : Cmat.buffers;  (* every point's elimination works here *)
}

let prepare sys ~op =
  let g, c, b = Mna.ac_matrices sys ~op in
  let n = Mna.size sys and pins = Mna.grounded_sources sys and free = Mna.free sys in
  let nf = Array.length free and np = Array.length pins in
  let vec len = Array.make len 0.0 in
  let s =
    { g; c; pins; bp_re = vec np; bp_im = vec np; v_re = vec np; v_im = vec np; free;
      gf = Mat.create nf nf 0.0; cf = Mat.create nf nf 0.0; r0_re = vec nf; r0_im = vec nf;
      r1_re = vec nf; r1_im = vec nf; yr = vec nf; yi = vec nf; xr = vec n; xi = vec n;
      bufs = Cmat.buffers nf }
  in
  let gd = g.Mat.data and cd = c.Mat.data in
  for k = 0 to np - 1 do
    let { Mna.node; branch } = pins.(k) in
    s.bp_re.(k) <- b.(node).Complex.re;
    s.bp_im.(k) <- b.(node).Complex.im;
    (* a branch row's only entry is ±1, so the division is exact *)
    let d = gd.((branch * n) + node) in
    s.v_re.(k) <- b.(branch).Complex.re /. d;
    s.v_im.(k) <- b.(branch).Complex.im /. d
  done;
  for i = 0 to nf - 1 do
    let row = free.(i) * n in
    for j = 0 to nf - 1 do
      s.gf.Mat.data.((i * nf) + j) <- gd.(row + free.(j));
      s.cf.Mat.data.((i * nf) + j) <- cd.(row + free.(j))
    done;
    s.r0_re.(i) <- b.(free.(i)).Complex.re;
    s.r0_im.(i) <- b.(free.(i)).Complex.im;
    for k = 0 to np - 1 do
      let gk = gd.(row + pins.(k).Mna.node) and ck = cd.(row + pins.(k).Mna.node) in
      s.r0_re.(i) <- s.r0_re.(i) -. (gk *. s.v_re.(k));
      s.r0_im.(i) <- s.r0_im.(i) -. (gk *. s.v_im.(k));
      s.r1_re.(i) <- s.r1_re.(i) -. (ck *. s.v_re.(k));
      s.r1_im.(i) <- s.r1_im.(i) -. (ck *. s.v_im.(k))
    done
  done;
  s

let solve s ~freq =
  let omega = 2.0 *. Float.pi *. freq in
  let nf = Array.length s.free in
  (* [r0 + jω r1] *)
  for i = 0 to nf - 1 do
    s.yr.(i) <- s.r0_re.(i) -. (omega *. s.r1_im.(i));
    s.yi.(i) <- s.r0_im.(i) +. (omega *. s.r1_re.(i))
  done;
  Cmat.solve s.bufs s.gf s.cf ~omega s.yr s.yi;
  let n = Array.length s.xr and xr = s.xr and xi = s.xi in
  for i = 0 to nf - 1 do
    xr.(s.free.(i)) <- s.yr.(i);
    xi.(s.free.(i)) <- s.yi.(i)
  done;
  for k = 0 to Array.length s.pins - 1 do
    let { Mna.node; branch } = s.pins.(k) in
    xr.(node) <- s.v_re.(k);
    xi.(node) <- s.v_im.(k);
    xr.(branch) <- 0.0;
    xi.(branch) <- 0.0
  done;
  (* each pinned source's branch current from its node's KCL row, the
     only row with an entry (±1) in that source's branch column *)
  let g = s.g.Mat.data and c = s.c.Mat.data in
  for k = 0 to Array.length s.pins - 1 do
    let { Mna.node; branch } = s.pins.(k) in
    let row = node * n in
    let ar = ref s.bp_re.(k) and ai = ref s.bp_im.(k) in
    for j = 0 to n - 1 do
      let gj = g.(row + j) and cj = omega *. c.(row + j) in
      if gj <> 0.0 || cj <> 0.0 then begin
        ar := !ar -. ((gj *. xr.(j)) -. (cj *. xi.(j)));
        ai := !ai -. ((gj *. xi.(j)) +. (cj *. xr.(j)))
      end
    done;
    let d = g.(row + branch) in
    xr.(branch) <- !ar /. d;
    xi.(branch) <- !ai /. d
  done;
  let x = Array.make n Complex.zero in
  for i = 0 to n - 1 do
    x.(i) <- { Complex.re = xr.(i); im = xi.(i) }
  done;
  Stc_obs.Registry.Counter.incr m_points;
  x

let solve_one sys ~op ~freq = solve (prepare sys ~op) ~freq
