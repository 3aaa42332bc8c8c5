let require_nonempty name xs =
  if Array.length xs = 0 then invalid_arg ("Stats." ^ name ^ ": empty array")

let mean xs =
  require_nonempty "mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = ref 0.0 in
    Array.iter (fun x -> let d = x -. m in acc := !acc +. (d *. d)) xs;
    !acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let min xs =
  require_nonempty "min" xs;
  Array.fold_left Float.min xs.(0) xs

let max xs =
  require_nonempty "max" xs;
  Array.fold_left Float.max xs.(0) xs

let quantile xs q =
  require_nonempty "quantile" xs;
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = pos -. float_of_int lo in
  ((1.0 -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let median xs = quantile xs 0.5

let covariance xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Stats.covariance: length mismatch";
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let mx = mean xs and my = mean ys in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. ((xs.(i) -. mx) *. (ys.(i) -. my))
    done;
    !acc /. float_of_int (n - 1)
  end

let correlation xs ys =
  let sx = stddev xs and sy = stddev ys in
  if sx = 0.0 || sy = 0.0 then 0.0 else covariance xs ys /. (sx *. sy)

let histogram xs ~bins ~lo ~hi =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if lo >= hi then invalid_arg "Stats.histogram: lo >= hi";
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  Array.iter
    (fun x ->
      let b = int_of_float (Float.floor ((x -. lo) /. width)) in
      let b = Stdlib.max 0 (Stdlib.min (bins - 1) b) in
      counts.(b) <- counts.(b) + 1)
    xs;
  counts
