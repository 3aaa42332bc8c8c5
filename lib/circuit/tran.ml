module Vec = Stc_numerics.Vec
module Mat = Stc_numerics.Mat

type method_ = Backward_euler | Trapezoidal

type options = {
  dt : float;
  method_ : method_;
  newton : Dc.options;
}

let default_options ~dt = { dt; method_ = Trapezoidal; newton = Dc.default_options }

type result = {
  times : float array;
  states : Vec.t array;
}

exception No_convergence of float

(* Capacitor companion state, one slot per {!Mna.capacitances} entry:
   the voltage and current at the last accepted time point, and the
   companion conductance and current source of the step being solved
   (fixed for all of its Newton iterations). *)
type companions = {
  caps : Mna.cap array;
  v_prev : float array;
  i_prev : float array;
  geq : float array;
  ieq : float array;
}

let[@inline] cap_voltage x (c : Mna.cap) =
  let vp = if c.Mna.cp >= 0 then x.(c.Mna.cp) else 0.0 in
  let vn = if c.Mna.cn >= 0 then x.(c.Mna.cn) else 0.0 in
  vp -. vn

(* companion conductance and rhs current of every capacitor for a step
   of [h] *)
let prepare opts h cs =
  for k = 0 to Array.length cs.caps - 1 do
    let c = cs.caps.(k).Mna.value in
    match opts.method_ with
    | Backward_euler ->
      let geq = c /. h in
      cs.geq.(k) <- geq;
      cs.ieq.(k) <- -.(geq *. cs.v_prev.(k))
    | Trapezoidal ->
      let geq = 2.0 *. c /. h in
      cs.geq.(k) <- geq;
      cs.ieq.(k) <- -.(geq *. cs.v_prev.(k)) -. cs.i_prev.(k)
  done

let[@inline] gadd g n i j v =
  let k = (i * n) + j in
  g.(k) <- g.(k) +. v

let stamp_companions cs (g : Mat.t) b =
  let n = g.Mat.cols and g = g.Mat.data in
  for k = 0 to Array.length cs.caps - 1 do
    let geq = cs.geq.(k) and ieq = cs.ieq.(k) in
    let { Mna.cp; cn; _ } = cs.caps.(k) in
    if cp >= 0 then gadd g n cp cp geq;
    if cn >= 0 then gadd g n cn cn geq;
    if cp >= 0 && cn >= 0 then begin
      gadd g n cp cn (-.geq);
      gadd g n cn cp (-.geq)
    end;
    if cp >= 0 then b.(cp) <- b.(cp) -. ieq;
    if cn >= 0 then b.(cn) <- b.(cn) +. ieq
  done

(* refresh the companions from the accepted solution [x] *)
let accept cs x =
  for k = 0 to Array.length cs.caps - 1 do
    let v_new = cap_voltage x cs.caps.(k) in
    cs.i_prev.(k) <- (cs.geq.(k) *. v_new) +. cs.ieq.(k);
    cs.v_prev.(k) <- v_new
  done

let breakpoints sys ~tstop =
  let netlist = Mna.netlist sys in
  List.concat_map
    (fun e ->
      match e with
      | Netlist.Vsource { wave; _ } | Netlist.Isource { wave; _ } ->
        Wave.breakpoints wave ~tmax:tstop
      | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Inductor _
      | Netlist.Vcvs _ | Netlist.Vccs _ | Netlist.Mosfet _ ->
        [])
    netlist.Netlist.elements
  |> List.sort_uniq compare

let run ?options sys ~tstop ~dt =
  let opts = match options with Some o -> o | None -> default_options ~dt in
  if tstop <= 0.0 then invalid_arg "Tran.run: tstop must be positive";
  if dt <= 0.0 then invalid_arg "Tran.run: dt must be positive";
  let op = Dc.solve_at ~options:opts.newton ~time:0.0 sys in
  let caps = Mna.capacitances sys in
  let slots () = Array.make (Array.length caps) 0.0 in
  let cs =
    { caps; v_prev = Array.map (cap_voltage op) caps; i_prev = slots ();
      geq = slots (); ieq = slots () }
  in
  let ws = Dc.workspace sys in
  let nopts = opts.newton in
  let bps = ref (breakpoints sys ~tstop) in
  let times = ref [ 0.0 ] and states = ref [ op ] in
  let t = ref 0.0 and x = ref op in
  while !t < tstop -. 1e-18 do
    (* drop stale breakpoints, then step to min(t+dt, next bp, tstop) *)
    while (match !bps with b :: _ when b <= !t +. 1e-18 -> true | _ -> false) do
      bps := List.tl !bps
    done;
    let target = Float.min (!t +. opts.dt) tstop in
    let target =
      match !bps with b :: _ when b < target -> b | _ -> target
    in
    let h = target -. !t in
    prepare opts h cs;
    let x_new =
      match
        Dc.newton ~companions:(stamp_companions cs) nopts sys ws ~time:target
          ~gmin:nopts.gmin ~source_scale:1.0
          ~inductors:(Mna.Companion { h; prev = !x }) ~x0:!x
      with
      | Some x_new -> x_new
      | None -> raise (No_convergence target)
    in
    accept cs x_new;
    t := target;
    x := x_new;
    times := target :: !times;
    states := x_new :: !states
  done;
  {
    times = Array.of_list (List.rev !times);
    states = Array.of_list (List.rev !states);
  }

let node_waveform sys result node =
  let idx = Mna.node_index sys node in
  Array.mapi
    (fun i t ->
      let v = if idx < 0 then 0.0 else result.states.(i).(idx) in
      (t, v))
    result.times

let branch_waveform sys result name =
  Array.mapi
    (fun i t -> (t, Mna.branch_current sys result.states.(i) name))
    result.times
