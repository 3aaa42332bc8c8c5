module Cmat = Stc_numerics.Cmat

let m_points = Stc_obs.Registry.counter "stc_ac_points_total"

type solver = {
  g : Stc_numerics.Mat.t;
  c : Stc_numerics.Mat.t;
  b : Complex.t array;
  bufs : Cmat.buffers;  (* every point's elimination works here *)
}

let prepare sys ~op =
  let g, c, b = Mna.ac_matrices sys ~op in
  { g; c; b; bufs = Cmat.buffers (Array.length b) }

let solve s ~freq =
  let x = Cmat.solve s.bufs s.g s.c ~omega:(2.0 *. Float.pi *. freq) s.b in
  Stc_obs.Registry.Counter.incr m_points;
  x

let solve_one sys ~op ~freq = solve (prepare sys ~op) ~freq
