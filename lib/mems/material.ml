let room_temperature = 14.85

let youngs_modulus_room = 160e9

let youngs_modulus_tc = -60e-6 (* 1/K *)

let youngs_modulus temp =
  youngs_modulus_room *. (1.0 +. (youngs_modulus_tc *. (temp -. room_temperature)))

let density = 2330.0

(* Effective CTE mismatch between film and substrate, 1/K: it turns a
   temperature excursion into anchor displacement and hence residual
   axial strain in the flexures. Calibrated so a ±60 K excursion shifts
   the resonance by a few percent. *)
let cte_mismatch = 0.05e-6

(* Hot: the substrate expands more than the film, anchors move outward,
   beams go into compression (negative strain). *)
let thermal_strain temp = -.(cte_mismatch *. (temp -. room_temperature))

(* Sutherland's law for air. *)
let air_viscosity temp =
  let t = temp +. 273.15 in
  let t0 = 291.15 and mu0 = 1.827e-5 and s = 120.0 in
  mu0 *. ((t0 +. s) /. (t +. s)) *. ((t /. t0) ** 1.5)

let gravity = 9.80665
