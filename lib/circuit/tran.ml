module Vec = Stc_numerics.Vec
module Mat = Stc_numerics.Mat

type result = {
  times : float array;
  states : Vec.t array;
}

exception No_convergence of float

(* the LTE tolerances, abstol in volts, and the |Δx|∞ at which a
   step's Newton solve stops, in volts; tran.mli says how they were
   chosen *)
let reltol = 1e-7
let abstol = 1e-9
let newton_tol = 1e-4

let m_steps = Stc_obs.Registry.counter "stc_tran_steps_total"
let m_rejected = Stc_obs.Registry.counter "stc_tran_rejected_steps_total"

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

(* trapezoidal companion conductance and rhs current of every capacitor
   for a step of [h] *)
let prepare h cs =
  for k = 0 to Array.length cs.caps - 1 do
    let geq = 2.0 *. cs.caps.(k).Mna.value /. h in
    cs.geq.(k) <- geq;
    cs.ieq.(k) <- -.(geq *. cs.v_prev.(k)) -. cs.i_prev.(k)
  done

(* add [v] at flat offset [o] of the row-major [g], unless it is a
   ground row or column (-1) *)
let[@inline] gadd g o v = if o >= 0 then g.(o) <- g.(o) +. v

let stamp_companions cs (g : Mat.t) b =
  let g = g.Mat.data in
  for k = 0 to Array.length cs.caps - 1 do
    let geq = cs.geq.(k) and ieq = cs.ieq.(k) in
    let { Mna.cp; cn; pp; nn; pn; np; _ } = cs.caps.(k) in
    gadd g pp geq;
    gadd g nn geq;
    gadd g pn (-.geq);
    gadd g np (-.geq);
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
      | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Inductor _ | Netlist.Mosfet _ ->
        [])
    netlist.Netlist.elements
  |> List.sort_uniq compare

(* The times the loop must land on: every source breakpoint, then
   [tstop]. A breakpoint closer than [min_gap] to the one before it (or
   to [tstop]) is merged into it, so two breakpoints an ulp apart never
   force a sliver step between them. *)
let stop_times sys ~tstop ~min_gap =
  let rec merge prev = function
    | [] -> [ tstop ]
    | b :: rest ->
      if b < prev +. min_gap || b > tstop -. min_gap then merge prev rest
      else b :: merge b rest
  in
  merge 0.0 (breakpoints sys ~tstop)

(* The worst ratio, over the node voltages (the first [n_nodes]
   unknowns), of the trapezoidal local truncation error h³·|DD₃|/2 to
   its tolerance reltol·max(|x|, |x_prev|) + abstol. DD₃ is the third
   divided difference through the points 0..3, oldest first; point 3 is
   the new one and h = t3 - t2. *)
let error_ratio ~n_nodes (t0, x0) (t1, x1) (t2, x2) (t3, x3) =
  let h = t3 -. t2 in
  let c = h *. h *. h /. 2.0 in
  let worst = ref 0.0 in
  for i = 0 to n_nodes - 1 do
    let d01 = (x1.(i) -. x0.(i)) /. (t1 -. t0) in
    let d12 = (x2.(i) -. x1.(i)) /. (t2 -. t1) in
    let d23 = (x3.(i) -. x2.(i)) /. h in
    let dd3 = (((d23 -. d12) /. (t3 -. t1)) -. ((d12 -. d01) /. (t2 -. t0))) /. (t3 -. t0) in
    let tol = (reltol *. Float.max (Float.abs x3.(i)) (Float.abs x2.(i))) +. abstol in
    let r = c *. Float.abs dd3 /. tol in
    if r > !worst then worst := r
  done;
  !worst

let run sys ~tstop ~dt =
  if tstop <= 0.0 then invalid_arg "Tran.run: tstop must be positive";
  if dt <= 0.0 then invalid_arg "Tran.run: dt must be positive";
  let h_start = dt /. 4.0 and h_max = 64.0 *. dt and h_min = 1e-4 *. dt in
  let op = Dc.solve_at ~time:0.0 sys in
  let caps = Mna.capacitances sys in
  let slots () = Array.make (Array.length caps) 0.0 in
  let cs =
    { caps; v_prev = Array.map (cap_voltage op) caps; i_prev = slots ();
      geq = slots (); ieq = slots () }
  in
  let ws = Dc.workspace sys in
  let nopts = { Dc.default_options with tol = newton_tol } in
  let n_nodes = List.length (Netlist.nodes (Mna.netlist sys)) in
  let times = ref [ 0.0 ] and states = ref [ op ] in
  (* the points accepted since the last breakpoint, newest first, at
     most three *)
  let history = ref [] in
  let predicted = Vec.create (Mna.size sys) 0.0 in
  let h = ref h_start and rejected = ref 0 in
  let count () =
    Stc_obs.Registry.Counter.add m_steps (List.length !times - 1);
    Stc_obs.Registry.Counter.add m_rejected !rejected;
    Dc.count_iterations ws
  in
  let rec advance = function
    | [] -> ()
    | stop :: rest as stops ->
      let t = List.hd !times and x = List.hd !states in
      (* land on [stop] exactly when it is within reach; within two
         steps, halve the distance instead, so no step is left a sliver *)
      let remaining = stop -. t in
      let step =
        if !h >= remaining then remaining
        else if 2.0 *. !h > remaining then remaining /. 2.0
        else !h
      in
      let target = if step = remaining then stop else t +. step in
      prepare step cs;
      (* Newton starts on the quadratic through the last three points
         accepted since the breakpoint, on the line through two, or from
         the last accepted point *)
      let start =
        match !history with
        | (t2, x2) :: (t1, x1) :: (t0, x0) :: _ ->
          (* the Lagrange weights of the three points at [target] *)
          let w2 = (target -. t1) *. (target -. t0) /. ((t2 -. t1) *. (t2 -. t0)) in
          let w1 = (target -. t2) *. (target -. t0) /. ((t1 -. t2) *. (t1 -. t0)) in
          let w0 = (target -. t2) *. (target -. t1) /. ((t0 -. t2) *. (t0 -. t1)) in
          for i = 0 to Vec.dim x2 - 1 do
            predicted.(i) <- (w2 *. x2.(i)) +. (w1 *. x1.(i)) +. (w0 *. x0.(i))
          done;
          predicted
        | [ (t1, x1); (t0, x0) ] ->
          let s = (target -. t1) /. (t1 -. t0) in
          for i = 0 to Vec.dim x1 - 1 do
            predicted.(i) <- x1.(i) +. (s *. (x1.(i) -. x0.(i)))
          done;
          predicted
        | [ _ ] | [] -> x
      in
      match
        Dc.newton ~companions:(stamp_companions cs) nopts sys ws ~time:target
          ~gmin:nopts.gmin ~source_scale:1.0
          ~inductors:(Mna.Companion { h = step; prev = x }) ~x0:start
      with
      | None ->
        incr rejected;
        h := step /. 8.0;
        if !h < h_min then raise (No_convergence target);
        advance stops
      | Some x_new ->
        let ratio =
          match !history with
          | [ p2; p1; p0 ] -> Some (error_ratio ~n_nodes p0 p1 p2 (target, x_new))
          | _ -> None
        in
        (match ratio with
         | Some r when r > 1.0 && step > h_min ->
           incr rejected;
           h := Float.max h_min (step *. 0.9 /. Float.cbrt r);
           advance stops
         | Some _ | None ->
           accept cs x_new;
           times := target :: !times;
           states := x_new :: !states;
           if target = stop then begin
             history := [];
             h := h_start;
             advance rest
           end
           else begin
             Option.iter
               (fun r -> h := Float.min h_max (step *. Float.min 2.0 (0.9 /. Float.cbrt r)))
               ratio;
             history :=
               (match (target, x_new) :: !history with
                | [ p3; p2; p1; _ ] -> [ p3; p2; p1 ]
                | points -> points);
             advance stops
           end)
  in
  Fun.protect ~finally:count (fun () -> advance (stop_times sys ~tstop ~min_gap:h_min));
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
