type t = {
  length : float;
  width : float;
  thickness : float;
}

let check b =
  assert (b.length > 0.0 && b.width > 0.0 && b.thickness > 0.0)

let buckling_strain b =
  check b;
  Float.pi *. Float.pi *. b.width *. b.width /. (12.0 *. b.length *. b.length)

let lateral_stiffness ?strain b ~temp =
  check b;
  let e = Material.youngs_modulus temp in
  let k0 = e *. b.thickness *. (b.width ** 3.0) /. (b.length ** 3.0) in
  let eps = match strain with Some s -> s | None -> Material.thermal_strain temp in
  let factor = 1.0 +. (eps /. buckling_strain b) in
  k0 *. Float.max 0.05 factor

let axial_stiffness b ~temp =
  check b;
  Material.youngs_modulus temp *. b.thickness *. b.width /. b.length

(* typical folded-flexure anisotropy *)
let fold_ratio = 100.0

let folded_axial_stiffness b ~temp =
  check b;
  let e = Material.youngs_modulus temp in
  fold_ratio *. e *. b.thickness *. (b.width ** 3.0) /. (b.length ** 3.0)

let mass b =
  check b;
  Material.density *. b.length *. b.width *. b.thickness
