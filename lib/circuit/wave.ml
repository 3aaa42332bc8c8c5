type t =
  | Dc of float
  | Pulse of {
      v1 : float;
      v2 : float;
      delay : float;
      rise : float;
      fall : float;
      width : float;
      period : float;
    }

let value w t =
  match w with
  | Dc v -> v
  | Pulse { v1; v2; delay; rise; fall; width; period } ->
    if t < delay then v1
    else begin
      let tp =
        if period > 0.0 && Float.is_finite period then
          Float.rem (t -. delay) period
        else t -. delay
      in
      if tp < rise then
        if rise <= 0.0 then v2 else v1 +. ((v2 -. v1) *. tp /. rise)
      else if tp < rise +. width then v2
      else if tp < rise +. width +. fall then
        if fall <= 0.0 then v1
        else v2 +. ((v1 -. v2) *. (tp -. rise -. width) /. fall)
      else v1
    end

let breakpoints w ~tmax =
  match w with
  | Dc _ -> []
  | Pulse { delay; rise; fall; width; period; _ } ->
    let edges_one t0 =
      [ t0; t0 +. rise; t0 +. rise +. width; t0 +. rise +. width +. fall ]
    in
    let rec collect t0 acc =
      if t0 > tmax then acc
      else begin
        let acc = List.rev_append (edges_one t0) acc in
        if period > 0.0 && Float.is_finite period then collect (t0 +. period) acc
        else acc
      end
    in
    collect delay []
    |> List.filter (fun t -> t > 0.0 && t <= tmax)
    |> List.sort_uniq compare
