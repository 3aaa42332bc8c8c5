type t = {
  geometry : Geometry.t;
  temp : float;
  kxx : float;
  kyy : float;
  kxy : float;
  m : float;
  b : float;
  gap : float;  (* temperature-corrected finger gap *)
}

let cte_film = 2.6e-6

let build geometry ~temp =
  let kxx = ref 0.0 and kyy = ref 0.0 and kxy = ref 0.0 in
  Array.iter
    (fun { Geometry.beam; angle } ->
      let ka = Beam.folded_axial_stiffness beam ~temp in
      let kl = Beam.lateral_stiffness beam ~temp in
      let cx = cos angle and sy = sin angle in
      (* K = ka·uuᵀ + kl·(I − uuᵀ) with u = (cx, sy) *)
      kxx := !kxx +. (ka *. cx *. cx) +. (kl *. sy *. sy);
      kyy := !kyy +. (ka *. sy *. sy) +. (kl *. cx *. cx);
      kxy := !kxy +. ((ka -. kl) *. cx *. sy))
    geometry.Geometry.springs;
  let gap =
    geometry.Geometry.finger_gap
    *. (1.0 +. (cte_film *. (temp -. Material.room_temperature)))
  in
  {
    geometry;
    temp;
    kxx = !kxx;
    kyy = !kyy;
    kxy = !kxy;
    m = Geometry.proof_mass geometry;
    b = Geometry.damping_coefficient geometry ~temp;
    gap;
  }

let stiffness t = (t.kxx, t.kyy, t.kxy)

let mass t = t.m

let damping t = t.b

let resonance t = sqrt (t.kxx /. t.m) /. (2.0 *. Float.pi)

let quality_estimate t = sqrt (t.kxx *. t.m) /. t.b

type axis = X_axis | Y_axis

(* What [solve] returns of the phasor x-displacement x. One float, so
   that the inlined solve stays unboxed: returning the pair would
   allocate it. *)
type part = Re | Im | Norm

(* Solves the 2x2 complex system (K - w²M + jwB) X = F for x in floats:
   x = (a22·f1 - a12·f2) / det with det = a11·a22 - a12·a12. Each
   product, difference and quotient is spelled out as Complex.mul,
   Complex.sub and Complex.div compute it, zero parts included and in
   the same order, and [Norm] is Float.hypot, which is Complex.norm; so
   x has the bits of the boxed solve. *)
let[@inline] solve t ~axis ~freq ~accel part =
  let w = 2.0 *. Float.pi *. freq in
  (* a11 = (d11, wb), a22 = (d22, wb), a12 = (kxy, 0) *)
  let wwm = w *. w *. t.m and wb = w *. t.b in
  let d11 = t.kxx -. wwm and d22 = t.kyy -. wwm in
  let f = t.m *. accel in
  (* f1 = (f1r, 0), f2 = (f2r, 0) *)
  let f1r, f2r = match axis with X_axis -> (f, 0.0) | Y_axis -> (0.0, f) in
  let det_re = ((d11 *. d22) -. (wb *. wb)) -. ((t.kxy *. t.kxy) -. (0.0 *. 0.0)) in
  let det_im = ((d11 *. wb) +. (wb *. d22)) -. ((t.kxy *. 0.0) +. (0.0 *. t.kxy)) in
  let num_re = ((d22 *. f1r) -. (wb *. 0.0)) -. ((t.kxy *. f2r) -. (0.0 *. 0.0)) in
  let num_im = ((d22 *. 0.0) +. (wb *. f1r)) -. ((t.kxy *. 0.0) +. (0.0 *. f2r)) in
  let re, im =
    if Float.abs det_re >= Float.abs det_im then begin
      let r = det_im /. det_re in
      let d = det_re +. (r *. det_im) in
      ((num_re +. (r *. num_im)) /. d, (num_im -. (r *. num_re)) /. d)
    end
    else begin
      let r = det_re /. det_im in
      let d = det_im +. (r *. det_re) in
      (((r *. num_re) +. num_im) /. d, ((r *. num_im) -. num_re) /. d)
    end
  in
  match part with Re -> re | Im -> im | Norm -> Float.hypot re im

let displacement t ~axis ~freq ~accel =
  { Complex.re = solve t ~axis ~freq ~accel Re; im = solve t ~axis ~freq ~accel Im }

let readout_mv_per_v t ~x = 1000.0 *. 2.0 *. x /. t.gap

let response_mv_per_v t ~axis ~freq =
  readout_mv_per_v t ~x:(solve t ~axis ~freq ~accel:Material.gravity Norm)
