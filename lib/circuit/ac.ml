module Cmat = Stc_numerics.Cmat

type point = { freq : float; solution : Complex.t array }

let m_points = Stc_obs.Registry.counter "stc_ac_points_total"

let solve_at g c b freq = Cmat.solve g c ~omega:(2.0 *. Float.pi *. freq) b

let sweep sys ~op ~freqs =
  let g, c, b = Mna.ac_matrices sys ~op in
  let points = Array.map (fun freq -> { freq; solution = solve_at g c b freq }) freqs in
  Stc_obs.Registry.Counter.add m_points (Array.length freqs);
  points

let solve_one sys ~op ~freq =
  let g, c, b = Mna.ac_matrices sys ~op in
  let x = solve_at g c b freq in
  Stc_obs.Registry.Counter.incr m_points;
  x

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
