module Roots = Stc_numerics.Roots

type values = {
  gain : float;
  bandwidth_3db : float;
  unity_gain_freq : float;
  slew_rate : float;
  rise_time : float;
  overshoot : float;
  settling_time : float;
  quiescent_current : float;
  common_mode_gain : float;
  power_supply_gain : float;
  short_circuit_current : float;
}

let to_array v =
  [|
    v.gain; v.bandwidth_3db; v.unity_gain_freq; v.slew_rate; v.rise_time;
    v.overshoot; v.settling_time; v.quiescent_current; v.common_mode_gain;
    v.power_supply_gain; v.short_circuit_current;
  |]

exception Measurement_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Measurement_failed s)) fmt

let solve_dc p bench =
  let sys = Mna.build (Opamp.netlist p bench) in
  let x0 = Opamp.initial_guess p sys in
  match Dc.solve ~x0 sys with
  | op -> (sys, op)
  | exception Dc.No_convergence msg -> fail "DC (%s)" msg

(* |vout| at [freq] for a bench whose AC drive has magnitude 1 *)
let response_mag ac ~out ~freq = Complex.norm (Ac.solve ac ~freq).(out)

(* Find the frequency at which the response magnitude falls to [target],
   scanning a log grid for a bracket and refining with Brent on log f. *)
let crossing_freq ac ~out ~target ~f_lo ~f_hi =
  let g logf = response_mag ac ~out ~freq:(10.0 ** logf) -. target in
  match Roots.find_bracket g ~lo:(log10 f_lo) ~hi:(log10 f_hi) ~steps:60 with
  | None -> None
  | Some (a, b) -> Some (10.0 ** Roots.brent ~tol:1e-6 g a b)

let measure_open_loop p =
  let sys, op = solve_dc p Opamp.Open_loop_gain in
  (* one small-signal system for the gain point and both crossing
     searches *)
  let ac = Ac.prepare sys ~op and out = Mna.node_index sys "out" in
  let iq = -.Mna.branch_current sys op "vdd" in
  let gain = response_mag ac ~out ~freq:1.0 in
  if gain <= 1.0 then fail "open-loop gain below unity (%.3g)" gain;
  let bw =
    match
      crossing_freq ac ~out ~target:(gain /. sqrt 2.0) ~f_lo:1.0 ~f_hi:1e6
    with
    | Some f -> f
    | None -> fail "no 3-dB point found"
  in
  let ugf =
    match crossing_freq ac ~out ~target:1.0 ~f_lo:bw ~f_hi:1e9 with
    | Some f -> f
    | None -> fail "no unity-gain crossing found"
  in
  (gain, bw, ugf, iq)

let measure_mag p bench ~freq =
  let sys, op = solve_dc p bench in
  response_mag (Ac.prepare sys ~op) ~out:(Mna.node_index sys "out") ~freq

(* The output's step response from the input edge on, shifted so that
   t = 0 is the start of the edge: measurements are then relative to
   the stimulus. Read from the transient's states in one pass; its
   times increase, so the samples at or after the edge are a suffix. *)
let step_window sys (r : Tran.result) ~t_step =
  let out = Mna.node_index sys "out" and times = r.Tran.times in
  let { Stc_numerics.Mat.cols; data; _ } = r.Tran.states in
  let n = Array.length times in
  let first = ref 0 in
  while !first < n && times.(!first) < t_step do
    incr first
  done;
  let first = !first in
  if n - first < 8 then fail "transient window too short";
  Array.init (n - first) (fun j ->
      let i = first + j in
      (times.(i) -. t_step, data.((i * cols) + out)))

let run_transient p bench ~tstop ~dt ~t_step =
  let sys = Mna.build (Opamp.netlist p bench) in
  match Tran.run sys ~tstop ~dt with
  | result -> step_window sys result ~t_step
  | exception Tran.No_convergence t -> fail "transient diverged at t=%.3g" t
  | exception Dc.No_convergence msg -> fail "transient DC (%s)" msg

let measure_small_step p =
  let amplitude = 0.1 in
  let t_step = 0.2e-6 in
  let tstop = 4.0e-6 in
  let w =
    run_transient p (Opamp.Unity_small_step amplitude) ~tstop ~dt:(tstop /. 1200.0) ~t_step
  in
  let overshoot = Waveform.overshoot w in
  let settling =
    match Waveform.settling_time ~band:0.01 w with
    | Some t -> t
    | None -> fail "output never settles"
  in
  (overshoot, settling)

let measure_large_step p =
  let amplitude = 4.0 in
  let t_step = 0.5e-6 in
  let tstop = 18.0e-6 in
  let w =
    run_transient p (Opamp.Unity_large_step amplitude) ~tstop ~dt:(tstop /. 1200.0) ~t_step
  in
  let slew =
    match Waveform.slew_rate w with
    | Some s -> s
    | None -> fail "no 20-80%% slew window found"
  in
  let rise =
    match Waveform.rise_time w with
    | Some t -> t
    | None -> fail "no 10-90%% rise found"
  in
  (slew, rise)

let measure_short_circuit p =
  let sys, op = solve_dc p Opamp.Short_circuit in
  Float.abs (Mna.branch_current sys op "vshort")

let measure p =
  let gain, bw, ugf, iq = measure_open_loop p in
  let cm = measure_mag p Opamp.Common_mode ~freq:10.0 in
  let ps = measure_mag p Opamp.Power_supply ~freq:10.0 in
  let overshoot, settling = measure_small_step p in
  let slew, rise = measure_large_step p in
  let isc = measure_short_circuit p in
  {
    gain;
    bandwidth_3db = bw;
    unity_gain_freq = ugf /. 1e6;
    slew_rate = slew /. 1e6;
    rise_time = rise *. 1e6;
    overshoot;
    settling_time = settling *. 1e9;
    quiescent_current = iq *. 1e6;
    common_mode_gain = cm;
    power_supply_gain = ps;
    short_circuit_current = isc *. 1e3;
  }
