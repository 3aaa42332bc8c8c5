(* The circuit layer, stage by stage. A fixed sample of op-amp draws is
   simulated once through the device closure (timed, with its minor-heap
   allocation) and once more through the public analyses the closure is
   built from — Opamp.netlist / Mna.build, Dc.solve, Ac.solve_one,
   Tran.run — with Measure_opamp's bench settings: the open-loop bench's
   1 Hz gain and its 3-dB and unity-gain crossing searches (60-segment
   log bracket, Brent at tol 1e-6), one 10 Hz point each on the
   common-mode and supply benches, the short-circuit DC point, and the
   two 1200-step step responses with their waveform measurements. *)

open Stc_circuit

type t = {
  instances : int;
  simulate_s : float;      (** mean closure time per instance *)
  alloc_words : float;     (** mean minor words per closure call *)
  build_s : float;         (** per instance: netlist + MNA build *)
  dc_s : float;
  ac_s : float;
  tran_s : float;
  wave_s : float;          (** step-response waveform measurements *)
  tran_steps : float;      (** transient time points per instance *)
}

(* Experiment's draw-to-sizing map (draw order is the order of
   Experiment.opamp_device's parameters). *)
let params_of_draw v =
  {
    Opamp.nominal with
    Opamp.w1 = v.(0); l1 = v.(1);
    w3 = v.(2); l3 = v.(3);
    w5 = v.(4); l5 = v.(5);
    w6 = v.(6); l6 = v.(7);
    w7 = v.(8); l7 = v.(9);
    w8 = v.(10); l8 = v.(11);
    cc = v.(12);
    cl = v.(13);
  }

let run ~ctx ~seed ~instances =
  let span name f = Ctx.span ctx name f in
  let device = Stc.Experiment.opamp_device () in
  (* the closure's first call fits the calibration; keep that out *)
  ignore (device.simulate (Stc_process.Variation.nominal_values device.params));
  let build = ref 0.0 and dc = ref 0.0 and ac = ref 0.0 and tran = ref 0.0 in
  let wave = ref 0.0 in
  let steps = ref 0 and sim = ref 0.0 and words = ref 0.0 in
  let timed acc name f =
    let t0 = Meter.now () in
    let r = span name f in
    acc := !acc +. (Meter.now () -. t0);
    r
  in
  let response sys op freq =
    let x = timed ac "circuit.ac" (fun () -> Ac.solve_one sys ~op ~freq) in
    Complex.norm x.(Mna.node_index sys "out")
  in
  let crossing sys op ~target ~f_lo ~f_hi =
    let g logf = response sys op (10.0 ** logf) -. target in
    match
      Stc_numerics.Roots.find_bracket g ~lo:(log10 f_lo) ~hi:(log10 f_hi) ~steps:60
    with
    | None -> f_hi
    | Some (a, b) -> 10.0 ** Stc_numerics.Roots.brent ~tol:1e-6 g a b
  in
  let operating_point p bench =
    let sys = timed build "circuit.build" (fun () -> Mna.build (Opamp.netlist p bench)) in
    (sys, timed dc "circuit.dc" (fun () -> Dc.solve ~x0:(Opamp.initial_guess p sys) sys))
  in
  (* the output waveform from the input edge on, as Measure_opamp trims it *)
  let step p bench ~t_step ~tstop ~measure =
    let sys = timed build "circuit.build" (fun () -> Mna.build (Opamp.netlist p bench)) in
    let r = timed tran "circuit.tran" (fun () -> Tran.run sys ~tstop ~dt:(tstop /. 1200.0)) in
    steps := !steps + Array.length r.Tran.times;
    timed wave "circuit.wave" (fun () ->
        Tran.node_waveform sys r "out"
        |> Array.to_list
        |> List.filter_map (fun (t, v) -> if t >= t_step then Some (t -. t_step, v) else None)
        |> Array.of_list |> measure)
  in
  let replay p =
    let sys, op = operating_point p Opamp.Open_loop_gain in
    let gain = response sys op 1.0 in
    let bw = crossing sys op ~target:(gain /. sqrt 2.0) ~f_lo:1.0 ~f_hi:1e6 in
    ignore (crossing sys op ~target:1.0 ~f_lo:bw ~f_hi:1e9 : float);
    List.iter
      (fun bench ->
        let sys, op = operating_point p bench in
        ignore (response sys op 10.0 : float))
      [ Opamp.Common_mode; Opamp.Power_supply ];
    step p (Opamp.Unity_small_step 0.1) ~t_step:0.2e-6 ~tstop:4.0e-6 ~measure:(fun w ->
        ignore (Waveform.overshoot w, Waveform.settling_time ~band:0.01 w));
    step p (Opamp.Unity_large_step 4.0) ~t_step:0.5e-6 ~tstop:18.0e-6 ~measure:(fun w ->
        ignore (Waveform.slew_rate w, Waveform.rise_time w));
    ignore (operating_point p Opamp.Short_circuit)
  in
  let closure draw =
    let w0 = Gc.minor_words () and t0 = Meter.now () in
    let ok = span "circuit.instance" (fun () -> device.simulate draw) <> None in
    (ok, Meter.now () -. t0, Gc.minor_words () -. w0)
  in
  (* walk instance indices until [instances] draws simulate; a draw the
     closure rejects is skipped, as the Monte-Carlo generator would. The
     closure runs first on even draws and the replay first on odd ones,
     so that neither gains from caches the other warmed. *)
  let rec go index done_ =
    if done_ < instances then begin
      let rng = Stc_process.Montecarlo.instance_rng ~seed ~index ~attempt:0 in
      let draw = Stc_process.Variation.sample_all rng device.params in
      let p = params_of_draw draw in
      let ok =
        if done_ mod 2 = 0 then begin
          let ok, dt, dw = closure draw in
          if ok then begin
            sim := !sim +. dt;
            words := !words +. dw;
            span "circuit.replay" (fun () -> replay p)
          end;
          ok
        end
        else begin
          (* a draw the closure rejects may fail inside the replay too;
             only completed replays are kept *)
          let saved = (!build, !dc, !ac, !tran, !wave, !steps) in
          let replayed =
            match span "circuit.replay" (fun () -> replay p) with
            | () -> true
            | exception _ -> false
          in
          let ok, dt, dw = closure draw in
          if ok && replayed then begin
            sim := !sim +. dt;
            words := !words +. dw
          end
          else begin
            let b, d, a, t, w, st = saved in
            build := b; dc := d; ac := a; tran := t; wave := w; steps := st
          end;
          ok && replayed
        end
      in
      go (index + 1) (if ok then done_ + 1 else done_)
    end
  in
  go 0 0;
  let per x = x /. float_of_int instances in
  {
    instances;
    simulate_s = per !sim;
    alloc_words = per !words;
    build_s = per !build;
    dc_s = per !dc;
    ac_s = per !ac;
    tran_s = per !tran;
    wave_s = per !wave;
    tran_steps = per (float_of_int !steps);
  }

(* Share of the closure's time the replayed stages do not account for. *)
let residual t =
  let staged = t.build_s +. t.dc_s +. t.ac_s +. t.tran_s +. t.wave_s in
  Float.abs (t.simulate_s -. staged) /. t.simulate_s
