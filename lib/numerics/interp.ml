let linear points x =
  let n = Array.length points in
  if n = 0 then invalid_arg "Interp.linear: no points";
  let x0, y0 = points.(0) and xn, yn = points.(n - 1) in
  if x <= x0 then y0
  else if x >= xn then yn
  else begin
    (* binary search for the segment containing x *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      let xm, _ = points.(mid) in
      if xm <= x then lo := mid else hi := mid
    done;
    let xa, ya = points.(!lo) and xb, yb = points.(!hi) in
    if xb = xa then ya
    else ya +. ((yb -. ya) *. (x -. xa) /. (xb -. xa))
  end

let segment_crossing (xa, ya) (xb, yb) ~level ~direction =
  let da = ya -. level and db = yb -. level in
  let qualifies =
    match direction with
    | `Rising -> da < 0.0 && db >= 0.0
    | `Falling -> da > 0.0 && db <= 0.0
    | `Any -> (da < 0.0 && db >= 0.0) || (da > 0.0 && db <= 0.0)
  in
  if not qualifies then None
  else if db = da then Some xa
  else Some (xa +. ((xb -. xa) *. (-.da /. (db -. da))))

let crossings points ~level ~direction =
  let out = ref [] in
  for i = 0 to Array.length points - 2 do
    match segment_crossing points.(i) points.(i + 1) ~level ~direction with
    | Some x -> out := x :: !out
    | None -> ()
  done;
  List.rev !out

let crossing points ~level ~direction =
  let rec from i =
    if i > Array.length points - 2 then None
    else
      match segment_crossing points.(i) points.(i + 1) ~level ~direction with
      | Some _ as x -> x
      | None -> from (i + 1)
  in
  from 0

let linspace lo hi n =
  if n < 2 then invalid_arg "Interp.linspace: need at least 2 points";
  Array.init n (fun i ->
      lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))

let logspace lo hi n =
  if lo <= 0.0 then invalid_arg "Interp.logspace: lo must be positive";
  if hi <= lo then invalid_arg "Interp.logspace: hi must exceed lo";
  if n < 2 then invalid_arg "Interp.logspace: need at least 2 points";
  let llo = log10 lo and lhi = log10 hi in
  Array.init n (fun i ->
      10.0 ** (llo +. ((lhi -. llo) *. float_of_int i /. float_of_int (n - 1))))
