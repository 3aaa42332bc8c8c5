(* Compaction on a third device class: a Sallen-Key low-pass filter,
   defined as a SPICE deck and measured with the AC engine. The two
   stop-band attenuation tests are functions of the cutoff and the
   filter order, so the compaction loop finds them redundant.

     dune exec examples/filter_compaction.exe *)

module Spice = Stc_circuit.Spice
module Mna = Stc_circuit.Mna
module Dc = Stc_circuit.Dc
module Ac = Stc_circuit.Ac
module Roots = Stc_numerics.Roots
module Spec = Stc.Spec
module Device_data = Stc.Device_data
module Compaction = Stc.Compaction
module Metrics = Stc.Metrics
module Report = Stc.Report
module Variation = Stc_process.Variation
module Montecarlo = Stc_process.Montecarlo

(* Unity-gain Sallen-Key low-pass, fc ~ 14 kHz, Q ~ 0.71; the buffer is
   a VCVS with large but finite (and process-dependent) gain. *)
let deck ~r1 ~r2 ~c1 ~c2 ~buffer_gain =
  Printf.sprintf
    "sallen-key low-pass\n\
     Vin in 0 DC 0 AC 1\n\
     R1 in x %g\n\
     R2 x y %g\n\
     C1 x out %g\n\
     C2 y 0 %g\n\
     * buffer: out = A (y - out) => out ~ y\n\
     Ebuf out 0 y out %g\n\
     .end\n"
    r1 r2 c1 c2 buffer_gain

let specs =
  [|
    Spec.make ~name:"dc gain" ~unit_label:"-" ~nominal:0.999 ~lower:0.95
      ~upper:1.05;
    Spec.make ~name:"cutoff frequency" ~unit_label:"kHz" ~nominal:14.0
      ~lower:12.7 ~upper:15.4;
    Spec.make ~name:"passband peaking" ~unit_label:"-" ~nominal:1.0 ~lower:0.0
      ~upper:1.03;
    Spec.make ~name:"attenuation @10fc" ~unit_label:"dB" ~nominal:40.0
      ~lower:35.0 ~upper:46.0;
    Spec.make ~name:"attenuation @30fc" ~unit_label:"dB" ~nominal:59.0
      ~lower:53.0 ~upper:65.0;
  |]

let measure params =
  match
    Spice.parse
      (deck ~r1:params.(0) ~r2:params.(1) ~c1:params.(2) ~c2:params.(3)
         ~buffer_gain:params.(4))
  with
  | Error _ -> None
  | Ok netlist ->
    let sys = Mna.build netlist in
    (match Dc.solve sys with
     | exception Dc.No_convergence _ -> None
     | op ->
       let mag freq =
         let x = Ac.solve_one sys ~op ~freq in
         Complex.norm x.(Mna.node_index sys "out")
       in
       let dc_gain = mag 10.0 in
       (* -3 dB crossing *)
       let target = dc_gain /. sqrt 2.0 in
       (match
          Roots.find_bracket (fun lf -> mag (10.0 ** lf) -. target) ~lo:3.0
            ~hi:6.0 ~steps:120
        with
        | None -> None
        | Some (a, b) ->
          let fc = 10.0 ** Roots.brent (fun lf -> mag (10.0 ** lf) -. target) a b in
          (* peaking: max response over the passband relative to DC *)
          let peaking =
            let best = ref 0.0 in
            for i = 0 to 60 do
              let f = 10.0 ** (2.0 +. (float_of_int i /. 60.0 *. (log10 fc -. 2.0))) in
              best := Float.max !best (mag f)
            done;
            !best /. dc_gain
          in
          let attenuation factor =
            20.0 *. log10 (dc_gain /. mag (14e3 *. factor))
          in
          Some
            [| dc_gain; fc /. 1e3; peaking; attenuation 10.0; attenuation 30.0 |]))

let device =
  {
    Montecarlo.device_name = "sallen-key filter";
    params =
      [|
        Variation.uniform_pct "r1" 1.6e3 ~pct:0.10;
        Variation.uniform_pct "r2" 1.6e3 ~pct:0.10;
        Variation.uniform_pct "c1" 10e-9 ~pct:0.10;
        Variation.uniform_pct "c2" 5e-9 ~pct:0.10;
        Variation.uniform_pct "buffer gain" 1000.0 ~pct:0.10;
      |];
    spec_count = Array.length specs;
    simulate = measure;
  }

let () =
  print_endline "simulating 1200 Sallen-Key filter instances via the SPICE deck...";
  let all = Montecarlo.generate_parallel ~seed:51 device ~n:1200 in
  let train_mc, test_mc = Montecarlo.split all ~at:800 in
  let train = Device_data.of_montecarlo ~specs train_mc in
  let test = Device_data.of_montecarlo ~specs test_mc in
  Printf.printf "train yield %.1f%%, test yield %.1f%%\n\n"
    (100.0 *. Device_data.yield_fraction train)
    (100.0 *. Device_data.yield_fraction test);
  let config =
    { Compaction.default_config with Compaction.guard_fraction = 0.005 }
  in
  (* examine the expensive stop-band sweeps first *)
  let result =
    Compaction.greedy ~order:(Stc.Order.Given [| 4; 3; 2; 0; 1 |]) config
      ~train ~test
  in
  List.iter
    (fun s ->
      Printf.printf "candidate %-20s e_p = %.2f%%  %s\n"
        specs.(s.Compaction.spec_index).Spec.name
        (100.0 *. s.Compaction.error)
        (if s.Compaction.accepted then "ELIMINATED" else "kept"))
    result.Compaction.steps;
  let counts = Compaction.evaluate_flow result.Compaction.flow test in
  Printf.printf "\ncompacted flow: escape %s, loss %s, guard %s\n"
    (Report.pct (Metrics.escape_pct counts))
    (Report.pct (Metrics.loss_pct counts))
    (Report.pct (Metrics.guard_pct counts))
