type range = {
  lower : float;
  upper : float;
}

type t = {
  name : string;
  unit_label : string;
  nominal : float;
  range : range;
}

let make ~name ~unit_label ~nominal ~lower ~upper =
  if not (lower < upper) then
    invalid_arg (Printf.sprintf "Spec.make %s: lower must be < upper" name);
  { name; unit_label; nominal; range = { lower; upper } }

let within r v = v >= r.lower && v <= r.upper

let passes t v = within t.range v

let width r = r.upper -. r.lower

let normalize t v = (v -. t.range.lower) /. width t.range

let denormalize t u = t.range.lower +. (u *. width t.range)

let perturb t ~fraction =
  let lower = t.range.lower -. (fraction *. Float.abs t.range.lower) in
  let upper = t.range.upper +. (fraction *. Float.abs t.range.upper) in
  if not (lower < upper) then
    invalid_arg (Printf.sprintf "Spec.perturb %s: range collapsed" t.name);
  { t with range = { lower; upper } }
