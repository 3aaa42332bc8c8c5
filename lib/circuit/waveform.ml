module Interp = Stc_numerics.Interp

type t = (float * float) array

let require_nonempty name w =
  if Array.length w = 0 then invalid_arg ("Waveform." ^ name ^ ": empty waveform")

let value_at w t = Interp.linear w t

let initial w =
  require_nonempty "initial" w;
  snd w.(0)

let final w =
  require_nonempty "final" w;
  snd w.(Array.length w - 1)

(* the level a step measure reads the step against *)
let settled level w = match level with Some v -> v | None -> final w

let rise_time ?final w =
  require_nonempty "rise_time" w;
  let v0 = initial w and v1 = settled final w in
  let step = v1 -. v0 in
  if step = 0.0 then None
  else begin
    let low = v0 +. (0.1 *. step) in
    let high = v0 +. (0.9 *. step) in
    let dir = if step > 0.0 then `Rising else `Falling in
    match
      ( Interp.crossing w ~level:low ~direction:dir,
        Interp.crossing w ~level:high ~direction:dir )
    with
    | Some t_low, Some t_high when t_high >= t_low -> Some (t_high -. t_low)
    | Some _, Some _ | Some _, None | None, Some _ | None, None -> None
  end

let overshoot w =
  require_nonempty "overshoot" w;
  let v0 = initial w and v1 = final w in
  let step = v1 -. v0 in
  if step = 0.0 then 0.0
  else begin
    (* peak excursion beyond the final value, in the step direction *)
    let worst = ref 0.0 in
    Array.iter
      (fun (_, v) ->
        let excess = if step > 0.0 then v -. v1 else v1 -. v in
        if excess > !worst then worst := excess)
      w;
    !worst /. Float.abs step
  end

let settling_time ?(band = 0.01) w =
  require_nonempty "settling_time" w;
  let v0 = initial w and v1 = final w in
  let step = Float.abs (v1 -. v0) in
  if step = 0.0 then Some 0.0
  else begin
    let tolerance = band *. step in
    (* scan backwards for the last time the waveform leaves the band *)
    let n = Array.length w in
    let rec last_escape i =
      if i < 0 then None
      else begin
        let _, v = w.(i) in
        if Float.abs (v -. v1) > tolerance then Some i else last_escape (i - 1)
      end
    in
    match last_escape (n - 1) with
    | None -> Some (fst w.(0))
    | Some i when i = n - 1 -> None (* never settles *)
    | Some i ->
      (* interpolate the band re-entry between samples i and i+1 *)
      let t0, va = w.(i) and t1, vb = w.(i + 1) in
      let target =
        if va > v1 +. tolerance then v1 +. tolerance else v1 -. tolerance
      in
      if vb = va then Some t1
      else Some (t0 +. ((t1 -. t0) *. (target -. va) /. (vb -. va)))
  end

let slew_rate ?final w =
  require_nonempty "slew_rate" w;
  let v0 = initial w and v1 = settled final w in
  let step = v1 -. v0 in
  if step = 0.0 then None
  else begin
    let low = v0 +. (0.2 *. step) and high = v0 +. (0.8 *. step) in
    let dir = if step > 0.0 then `Rising else `Falling in
    match
      ( Interp.crossing w ~level:low ~direction:dir,
        Interp.crossing w ~level:high ~direction:dir )
    with
    | Some t_low, Some t_high when t_high > t_low ->
      Some (Float.abs ((high -. low) /. (t_high -. t_low)))
    | Some _, Some _ | Some _, None | None, Some _ | None, None -> None
  end

let peak w =
  require_nonempty "peak" w;
  Array.fold_left
    (fun (tb, vb) (t, v) -> if v > vb then (t, v) else (tb, vb))
    w.(0) w
