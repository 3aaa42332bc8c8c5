module Vec = Stc_numerics.Vec
module Mat = Stc_numerics.Mat

type result = {
  times : float array;
  states : Mat.t;
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

(* Companion state. Per {!Mna.capacitances} entry: the voltage and
   current at the last accepted time point, and the trapezoidal
   companion conductance and current source of the step being solved.
   Per {!Mna.inductors} entry: the backward-Euler conductance -L/h and
   source -(L/h)·i_prev of that step. The step's terms are fixed for all
   of its Newton iterations. *)
type companions = {
  caps : Mna.cap array;
  v_prev : float array;
  i_prev : float array;
  geq : float array;
  ieq : float array;
  inductors : Mna.inductor array;
  l_geq : float array;
  l_ieq : float array;
}

let[@inline] cap_voltage x (c : Mna.cap) =
  let vp = if c.Mna.cp >= 0 then x.(c.Mna.cp) else 0.0 in
  let vn = if c.Mna.cn >= 0 then x.(c.Mna.cn) else 0.0 in
  vp -. vn

let companions sys op =
  let caps = Mna.capacitances sys and inductors = Mna.inductors sys in
  let zeros a = Array.make (Array.length a) 0.0 in
  { caps; v_prev = Array.map (cap_voltage op) caps; i_prev = zeros caps; geq = zeros caps;
    ieq = zeros caps; inductors; l_geq = zeros inductors; l_ieq = zeros inductors }

(* the companion terms of a step of [h] from the accepted solution
   [prev] *)
let[@inline] prepare cs h (prev : Vec.t) =
  for k = 0 to Array.length cs.caps - 1 do
    let geq = 2.0 *. cs.caps.(k).Mna.value /. h in
    cs.geq.(k) <- geq;
    cs.ieq.(k) <- -.(geq *. cs.v_prev.(k)) -. cs.i_prev.(k)
  done;
  for k = 0 to Array.length cs.inductors - 1 do
    let { Mna.br; l; _ } = cs.inductors.(k) in
    (* backward Euler: v = (L/h) (i - i_prev) *)
    cs.l_geq.(k) <- -.(l /. h);
    cs.l_ieq.(k) <- -.(l /. h *. prev.(br))
  done

(* add [v] at flat offset [o] of the row-major [g], unless it is a
   ground row or column (-1) *)
let[@inline] gadd g o v = if o >= 0 then g.(o) <- g.(o) +. v

(* Adds the step's companions to the stamped system. An inductor's
   terms land on its (br, br) entry and its rhs row, which no other
   stamp touches. *)
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
  done;
  for k = 0 to Array.length cs.inductors - 1 do
    let { Mna.br; brbr; _ } = cs.inductors.(k) in
    g.(brbr) <- g.(brbr) +. cs.l_geq.(k);
    b.(br) <- b.(br) +. cs.l_ieq.(k)
  done

(* refresh the capacitor companions from the accepted solution [x] *)
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

(* The last three points accepted since the last breakpoint and the
   candidate being solved, in four fixed slots. [order.(0)] is the last
   accepted point (the breakpoint itself right after one), [order.(1)]
   and [order.(2)] the two before it, [order.(3)] the candidate; the
   first [history] of [order.(0..2)] were accepted since the breakpoint
   and are what the predictor and the LTE estimate read. *)
type slots = {
  ts : float array;
  xs : Vec.t array;
  order : int array;
  mutable history : int;
}

(* the candidate becomes the last accepted point, and the oldest slot
   the next candidate *)
let rotate s =
  let c = s.order.(3) in
  s.order.(3) <- s.order.(2);
  s.order.(2) <- s.order.(1);
  s.order.(1) <- s.order.(0);
  s.order.(0) <- c

(* Writes the candidate's Newton start: the quadratic through the three
   history points extrapolated to its time, the line through two, or
   the last accepted point. *)
let[@inline] predict s =
  let n = Vec.dim s.xs.(0) and p = s.xs.(s.order.(3)) and target = s.ts.(s.order.(3)) in
  if s.history = 3 then begin
    let t2 = s.ts.(s.order.(0)) and x2 = s.xs.(s.order.(0)) in
    let t1 = s.ts.(s.order.(1)) and x1 = s.xs.(s.order.(1)) in
    let t0 = s.ts.(s.order.(2)) and x0 = s.xs.(s.order.(2)) in
    (* the Lagrange weights of the three points at [target] *)
    let w2 = (target -. t1) *. (target -. t0) /. ((t2 -. t1) *. (t2 -. t0)) in
    let w1 = (target -. t2) *. (target -. t0) /. ((t1 -. t2) *. (t1 -. t0)) in
    let w0 = (target -. t2) *. (target -. t1) /. ((t0 -. t2) *. (t0 -. t1)) in
    for i = 0 to n - 1 do
      p.(i) <- (w2 *. x2.(i)) +. (w1 *. x1.(i)) +. (w0 *. x0.(i))
    done
  end
  else if s.history = 2 then begin
    let t1 = s.ts.(s.order.(0)) and x1 = s.xs.(s.order.(0)) in
    let t0 = s.ts.(s.order.(1)) and x0 = s.xs.(s.order.(1)) in
    let r = (target -. t1) /. (t1 -. t0) in
    for i = 0 to n - 1 do
      p.(i) <- x1.(i) +. (r *. (x1.(i) -. x0.(i)))
    done
  end
  else Array.blit s.xs.(s.order.(0)) 0 p 0 n

(* The worst ratio, over the node voltages (the first [n_nodes]
   unknowns), of the trapezoidal local truncation error h³·|DD₃|/2 to
   its tolerance reltol·max(|x|, |x_prev|) + abstol. DD₃ is the third
   divided difference through the three history points and the
   candidate, oldest first; point 3 is the candidate and
   h = t3 - t2. *)
let[@inline] error_ratio ~n_nodes s =
  let t0 = s.ts.(s.order.(2)) and x0 = s.xs.(s.order.(2)) in
  let t1 = s.ts.(s.order.(1)) and x1 = s.xs.(s.order.(1)) in
  let t2 = s.ts.(s.order.(0)) and x2 = s.xs.(s.order.(0)) in
  let t3 = s.ts.(s.order.(3)) and x3 = s.xs.(s.order.(3)) in
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

(* Every accepted point, in order: [times.(i)] and row [i] of the
   row-major [states], [size] unknowns a row. Both double when full. *)
type buffer = {
  size : int;
  mutable times : float array;
  mutable states : float array;
  mutable count : int;
}

(* appends slot [k] of [s] *)
let append b s k =
  if b.count = Array.length b.times then begin
    let grow a len =
      let a' = Array.make (2 * len) 0.0 in
      Array.blit a 0 a' 0 len;
      a'
    in
    b.times <- grow b.times b.count;
    b.states <- grow b.states (b.count * b.size)
  end;
  b.times.(b.count) <- s.ts.(k);
  Array.blit s.xs.(k) 0 b.states (b.count * b.size) b.size;
  b.count <- b.count + 1

(* The next step to try, in an all-float record so that updating it
   boxes nothing. *)
type clock = { mutable h : float }

let run ?until sys ~tstop ~dt =
  if tstop <= 0.0 then invalid_arg "Tran.run: tstop must be positive";
  if dt <= 0.0 then invalid_arg "Tran.run: dt must be positive";
  let h_start = dt /. 4.0 and h_max = 64.0 *. dt and h_min = 1e-4 *. dt in
  let op = Dc.solve_at ~time:0.0 sys in
  let size = Mna.size sys in
  let cs = companions sys op in
  let stamp = stamp_companions cs in
  let ws = Dc.workspace sys in
  let nopts = { Dc.default_options with tol = newton_tol } in
  let n_nodes = Mna.node_count sys in
  let s =
    { ts = Array.make 4 0.0; xs = Array.init 4 (fun _ -> Vec.create size 0.0);
      order = [| 0; 1; 2; 3 |]; history = 0 }
  in
  Array.blit op 0 s.xs.(s.order.(0)) 0 size;
  (* room for 256 points; each op-amp bench's run doubles it once *)
  let buf =
    { size; times = Array.make 256 0.0; states = Array.make (256 * size) 0.0; count = 0 }
  in
  append buf s s.order.(0);
  let stops = Array.of_list (stop_times sys ~tstop ~min_gap:h_min) in
  let rejected = ref 0 in
  let count () =
    Stc_obs.Registry.Counter.add m_steps (buf.count - 1);
    Stc_obs.Registry.Counter.add m_rejected !rejected;
    Dc.count_iterations ws
  in
  let advance () =
    let clock = { h = h_start } and next = ref 0 and stopped = ref false in
    while !next < Array.length stops && not !stopped do
      let stop = stops.(!next) in
      let last = s.order.(0) and cand = s.order.(3) in
      let t = s.ts.(last) in
      (* land on [stop] exactly when it is within reach; within two
         steps, halve the distance instead, so no step is left a sliver *)
      let remaining = stop -. t in
      let h = clock.h in
      let step =
        if h >= remaining then remaining else if 2.0 *. h > remaining then remaining /. 2.0 else h
      in
      let target = if step = remaining then stop else t +. step in
      s.ts.(cand) <- target;
      prepare cs step s.xs.(last);
      predict s;
      if
        not
          (Dc.newton ~companions:stamp nopts sys ws ~time:target ~gmin:nopts.gmin
             ~source_scale:1.0 s.xs.(cand))
      then begin
        incr rejected;
        clock.h <- step /. 8.0;
        if clock.h < h_min then raise (No_convergence target)
      end
      else begin
        let checked = s.history = 3 in
        let ratio = if checked then error_ratio ~n_nodes s else 0.0 in
        if checked && ratio > 1.0 && step > h_min then begin
          incr rejected;
          clock.h <- Float.max h_min (step *. 0.9 /. Float.cbrt ratio)
        end
        else begin
          accept cs s.xs.(cand);
          rotate s;
          append buf s cand;
          (* read only after the point is kept: it never steers a step *)
          (match until with Some until -> stopped := until target s.xs.(cand) | None -> ());
          if target = stop then begin
            s.history <- 0;
            clock.h <- h_start;
            incr next
          end
          else begin
            if checked then
              clock.h <- Float.min h_max (step *. Float.min 2.0 (0.9 /. Float.cbrt ratio));
            s.history <- min 3 (s.history + 1)
          end
        end
      end
    done
  in
  Fun.protect ~finally:count advance;
  {
    times = Array.sub buf.times 0 buf.count;
    states = { Mat.rows = buf.count; cols = size; data = Array.sub buf.states 0 (buf.count * size) };
  }

let node_waveform sys (result : result) node =
  let idx = Mna.node_index sys node in
  let { Mat.cols; data; _ } = result.states in
  Array.mapi (fun i t -> (t, if idx < 0 then 0.0 else data.((i * cols) + idx))) result.times
