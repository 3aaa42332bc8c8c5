type t =
  | Factor of float
  | Offset of float

let fit ~measured_nominal ~target_nominal =
  if Float.abs measured_nominal < 1e-30 then
    Offset (target_nominal -. measured_nominal)
  else Factor (target_nominal /. measured_nominal)

let apply t v =
  match t with
  | Factor k -> k *. v
  | Offset d -> v +. d

let apply_all ts vs =
  if Array.length ts <> Array.length vs then
    invalid_arg "Calibration.apply_all: length mismatch";
  Array.mapi (fun i v -> apply ts.(i) v) vs
