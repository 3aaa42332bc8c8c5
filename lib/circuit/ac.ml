module Cmat = Stc_numerics.Cmat

type point = { freq : float; solution : Complex.t array }

let m_points = Stc_obs.Registry.counter "stc_ac_points_total"

type solver = {
  g : Stc_numerics.Mat.t;
  c : Stc_numerics.Mat.t;
  b : Complex.t array;
}

let prepare sys ~op =
  let g, c, b = Mna.ac_matrices sys ~op in
  { g; c; b }

let solve_at s freq = Cmat.solve s.g s.c ~omega:(2.0 *. Float.pi *. freq) s.b

let solve s ~freq =
  let x = solve_at s freq in
  Stc_obs.Registry.Counter.incr m_points;
  x

let sweep sys ~op ~freqs =
  let s = prepare sys ~op in
  let points = Array.map (fun freq -> { freq; solution = solve_at s freq }) freqs in
  Stc_obs.Registry.Counter.add m_points (Array.length freqs);
  points

let solve_one sys ~op ~freq = solve (prepare sys ~op) ~freq

let node_response sys points node =
  let idx = Mna.node_index sys node in
  Array.map
    (fun { freq; solution } ->
      let z = if idx < 0 then Complex.zero else solution.(idx) in
      (freq, z))
    points

let magnitude = Complex.norm

let db z =
  let m = Complex.norm z in
  if m <= 0.0 then Float.neg_infinity else 20.0 *. log10 m

let phase_deg z = Complex.arg z *. 180.0 /. Float.pi
