(* Tests for the MNA circuit simulator: analytic circuits with known
   answers, plus the op-amp benches. *)

module Netlist = Stc_circuit.Netlist
module Wave = Stc_circuit.Wave
module Mosfet = Stc_circuit.Mosfet
module Mna = Stc_circuit.Mna
module Dc = Stc_circuit.Dc
module Ac = Stc_circuit.Ac
module Tran = Stc_circuit.Tran
module Waveform = Stc_circuit.Waveform
module Opamp = Stc_circuit.Opamp
module Measure_opamp = Stc_circuit.Measure_opamp

let check_close tol = Alcotest.(check (float tol))

(* ------------------------------ Wave ------------------------------ *)

let wave_tests =
  [
    Alcotest.test_case "dc" `Quick (fun () ->
        check_close 0.0 "value" 3.0 (Wave.value (Wave.Dc 3.0) 17.0));
    Alcotest.test_case "pulse profile" `Quick (fun () ->
        let p =
          Wave.Pulse
            { v1 = 0.0; v2 = 1.0; delay = 1.0; rise = 1.0; fall = 1.0;
              width = 2.0; period = 0.0 }
        in
        check_close 1e-12 "before" 0.0 (Wave.value p 0.5);
        check_close 1e-12 "mid-rise" 0.5 (Wave.value p 1.5);
        check_close 1e-12 "high" 1.0 (Wave.value p 3.0);
        check_close 1e-12 "mid-fall" 0.5 (Wave.value p 4.5);
        check_close 1e-12 "after" 0.0 (Wave.value p 6.0));
    Alcotest.test_case "pulse periodic repeats" `Quick (fun () ->
        let p =
          Wave.Pulse
            { v1 = 0.0; v2 = 1.0; delay = 0.0; rise = 0.1; fall = 0.1;
              width = 0.3; period = 1.0 }
        in
        check_close 1e-12 "second period high" 1.0 (Wave.value p 1.2));
    Alcotest.test_case "breakpoints sorted within range" `Quick (fun () ->
        let p =
          Wave.Pulse
            { v1 = 0.0; v2 = 1.0; delay = 1.0; rise = 0.5; fall = 0.5;
              width = 1.0; period = 0.0 }
        in
        let bps = Wave.breakpoints p ~tmax:10.0 in
        Alcotest.(check (list (float 1e-12))) "edges" [ 1.0; 1.5; 2.5; 3.0 ] bps);
  ]

(* ----------------------------- Mosfet ----------------------------- *)

(* A 10/1 µm device linearised at one bias point. *)
let linearise p ~vgs ~vds =
  let op = Mosfet.op () in
  op.Mosfet.vgs <- vgs;
  op.Mosfet.vds <- vds;
  Mosfet.linearise p ~beta:(Mosfet.beta p ~w:10e-6 ~l:1e-6) op;
  op

let mosfet_tests =
  [
    Alcotest.test_case "cutoff leaks only" `Quick (fun () ->
        let op = linearise Mosfet.default_nmos ~vgs:0.0 ~vds:1.0 in
        check_close 0.0 "no transconductance" 0.0 op.Mosfet.gm;
        check_close 0.0 "leak conductance" 1e-12 op.Mosfet.gds;
        Alcotest.(check bool) "tiny current" true (Float.abs op.Mosfet.ids < 1e-10));
    Alcotest.test_case "saturation square law" `Quick (fun () ->
        let p = { Mosfet.default_nmos with lambda = 0.0 } in
        let op = linearise p ~vgs:1.7 ~vds:2.0 in
        (* 0.5 * 110u * 10 * 1.0^2 *)
        check_close 1e-9 "ids" 550e-6 op.Mosfet.ids;
        check_close 1e-9 "gm = beta*vov" 1.1e-3 op.Mosfet.gm;
        check_close 0.0 "no output conductance without CLM" 0.0 op.Mosfet.gds);
    Alcotest.test_case "triode conductance" `Quick (fun () ->
        let p = { Mosfet.default_nmos with lambda = 0.0 } in
        let op = linearise p ~vgs:1.7 ~vds:0.1 in
        (* beta = 1.1 mA/V^2, vov = 1 V: ids = beta (vov vds - vds^2/2) *)
        check_close 1e-12 "ids" 1.045e-4 op.Mosfet.ids;
        check_close 1e-12 "gm = beta*vds" 1.1e-4 op.Mosfet.gm;
        check_close 1e-12 "gds = beta*(vov - vds)" 9.9e-4 op.Mosfet.gds);
    Alcotest.test_case "pmos mirrors nmos" `Quick (fun () ->
        let opn = linearise Mosfet.default_nmos ~vgs:1.5 ~vds:1.5 in
        let p = { Mosfet.default_nmos with kind = Mosfet.Pmos } in
        let opp = linearise p ~vgs:(-1.5) ~vds:(-1.5) in
        check_close 1e-12 "current mirrored" (-.opn.Mosfet.ids) opp.Mosfet.ids;
        check_close 1e-12 "gm preserved" opn.Mosfet.gm opp.Mosfet.gm);
    Alcotest.test_case "continuity at triode/sat edge" `Quick (fun () ->
        let p = Mosfet.default_nmos in
        let vov = 0.5 in
        let below = linearise p ~vgs:(p.Mosfet.vt0 +. vov) ~vds:(vov -. 1e-9) in
        let above = linearise p ~vgs:(p.Mosfet.vt0 +. vov) ~vds:(vov +. 1e-9) in
        check_close 1e-9 "ids continuous" below.Mosfet.ids above.Mosfet.ids);
    Alcotest.test_case "capacitances positive and scale with W" `Quick (fun () ->
        let p = Mosfet.default_nmos in
        let c1 = Mosfet.cgs p ~w:10e-6 ~l:1e-6 in
        let c2 = Mosfet.cgs p ~w:20e-6 ~l:1e-6 in
        Alcotest.(check bool) "positive" true (c1 > 0.0);
        Alcotest.(check bool) "monotone in W" true (c2 > c1));
  ]

(* ------------------------------ MNA ------------------------------- *)

(* Every capacitance a netlist lists, as (unknown, unknown, value): its
   capacitors and each MOSFET's cdb (to ground), cgd and cgs. *)
let listed_capacitances sys netlist =
  let node = Mna.node_index sys in
  List.concat_map
    (function
      | Netlist.Capacitor { p; n; c; _ } -> [ (node p, node n, c) ]
      | Netlist.Mosfet { d; g; s; model; w; l; _ } ->
        [ (node d, -1, Mosfet.cdb model ~w ~l); (node g, node d, Mosfet.cgd model ~w ~l);
          (node g, node s, Mosfet.cgs model ~w ~l) ]
      | Netlist.Resistor _ | Netlist.Inductor _ | Netlist.Vsource _ | Netlist.Isource _ -> [])
    netlist.Netlist.elements

let mna_tests =
  List.map
    (fun (name, bench) ->
      Alcotest.test_case (name ^ " bench: 16 merged capacitances") `Quick (fun () ->
          let netlist = Opamp.netlist Opamp.nominal bench in
          let sys = Mna.build netlist in
          let listed = listed_capacitances sys netlist and caps = Mna.capacitances sys in
          (* two self-loops (the gate-drain capacitances of the
             diode-connected M3 and M8) and eight repeated pairs *)
          Alcotest.(check int) "listed" 26 (List.length listed);
          Alcotest.(check int) "compiled" 16 (Array.length caps);
          let pair a b = (Int.min a b, Int.max a b) in
          Array.iteri
            (fun k { Mna.cp; cn; value; _ } ->
              if cp = cn then Alcotest.failf "capacitance %d is a self-loop on %d" k cp;
              Array.iteri
                (fun k' (c : Mna.cap) ->
                  if k' > k && pair c.cp c.cn = pair cp cn then
                    Alcotest.failf "capacitances %d and %d both join %d and %d" k k' cp cn)
                caps;
              let total =
                List.fold_left
                  (fun acc (p, n, v) -> if pair p n = pair cp cn then acc +. v else acc)
                  0.0 listed
              in
              check_close (1e-15 *. total) (Printf.sprintf "total on (%d, %d)" cp cn) total value)
            caps))
    [ ("small-step", Opamp.Unity_small_step 0.1); ("large-step", Opamp.Unity_large_step 4.0) ]

(* --------------------------- DC analysis -------------------------- *)

let resistor_divider () =
  Netlist.of_elements
    [
      Netlist.vdc "v1" "in" "0" 10.0;
      Netlist.r "r1" "in" "mid" 1000.0;
      Netlist.r "r2" "mid" "0" 1000.0;
    ]

let dc_tests =
  [
    Alcotest.test_case "resistor divider" `Quick (fun () ->
        let sys = Mna.build (resistor_divider ()) in
        let x = Dc.solve sys in
        (* tolerances account for the intentional 1e-12 S gmin leak *)
        check_close 1e-6 "mid" 5.0 (Mna.node_voltage sys x "mid");
        (* branch current flows in -> 0 through the source: -(10/2k) *)
        check_close 1e-9 "source current" (-5e-3) (Mna.branch_current sys x "v1"));
    Alcotest.test_case "current source into resistor" `Quick (fun () ->
        let sys =
          Mna.build
            (Netlist.of_elements
               [
                 Netlist.Isource { name = "i1"; p = "0"; n = "a"; wave = Wave.Dc 1e-3; ac = 0.0 };
                 Netlist.r "r1" "a" "0" 2000.0;
               ])
        in
        let x = Dc.solve sys in
        check_close 1e-6 "v = IR" 2.0 (Mna.node_voltage sys x "a"));
    Alcotest.test_case "inductor is a DC short" `Quick (fun () ->
        let sys =
          Mna.build
            (Netlist.of_elements
               [
                 Netlist.vdc "v1" "a" "0" 3.0;
                 Netlist.l "l1" "a" "b" 1e-3;
                 Netlist.r "r1" "b" "0" 1000.0;
               ])
        in
        let x = Dc.solve sys in
        check_close 1e-9 "no drop" 3.0 (Mna.node_voltage sys x "b");
        check_close 1e-9 "current" 3e-3 (Mna.branch_current sys x "l1"));
    Alcotest.test_case "diode-connected mosfet bias" `Quick (fun () ->
        (* vdd -> R -> diode-connected NMOS: vgs solves the square law *)
        let sys =
          Mna.build
            (Netlist.of_elements
               [
                 Netlist.vdc "vdd" "vdd" "0" 5.0;
                 Netlist.r "r1" "vdd" "d" 100e3;
                 Netlist.nmos "m1" ~d:"d" ~g:"d" ~s:"0" ~w:10e-6 ~l:1e-6 ();
               ])
        in
        let x = Dc.solve sys in
        let vgs = Mna.node_voltage sys x "d" in
        Alcotest.(check bool) "above threshold" true (vgs > 0.7 && vgs < 1.5);
        (* KCL: resistor current equals device current per square law *)
        let ir = (5.0 -. vgs) /. 100e3 in
        let op = linearise Mosfet.default_nmos ~vgs ~vds:vgs in
        check_close 1e-8 "currents match" ir op.Mosfet.ids);
    Alcotest.test_case "netlist validation" `Quick (fun () ->
        let bad =
          Netlist.of_elements
            [ Netlist.r "r1" "a" "0" 1.0; Netlist.r "r1" "a" "0" 2.0 ]
        in
        (match Netlist.validate bad with
         | Error _ -> ()
         | Ok () -> Alcotest.fail "expected duplicate-name error");
        let negative = Netlist.of_elements [ Netlist.r "r1" "a" "0" (-5.0) ] in
        (match Netlist.validate negative with
         | Error _ -> ()
         | Ok () -> Alcotest.fail "expected non-positive value error"));
    Alcotest.test_case "each fallback bumps its own counter once" `Quick (fun () ->
        let counters =
          [ "stc_dc_solves_total"; "stc_dc_gmin_stepping_total";
            "stc_dc_source_stepping_total" ]
          |> List.map Stc_obs.Registry.counter
        in
        (* the solves, gmin-stepping and source-stepping counts one
           solve adds *)
        let bumps ?options netlist =
          let before = List.map Stc_obs.Registry.Counter.get counters in
          ignore (Dc.solve ?options (Mna.build netlist) : Stc_numerics.Vec.t);
          List.map2 (fun c b -> Stc_obs.Registry.Counter.get c - b) counters before
        in
        let check what want got = Alcotest.(check (list int)) what want got in
        let nfet = Netlist.nmos "m1" ~d:"a" ~g:"a" ~s:"0" ~w:10e-6 ~l:1e-6 () in
        check "plain solve" [ 1; 0; 0 ] (bumps (resistor_divider ()));
        (* a node with no DC path: singular without gmin *)
        check "gmin stepping" [ 1; 1; 0 ]
          (bumps
             ~options:{ Dc.default_options with Dc.gmin = 0.0 }
             (Netlist.of_elements
                [ Netlist.vdc "v1" "in" "0" 2.0; Netlist.r "r1" "in" "a" 1e3;
                  Netlist.c "c1" "a" "f" 1e-9; nfet ]));
        (* 10 V onto a diode-connected device within 12 iterations:
           plain Newton and gmin stepping both run out, source stepping
           does not *)
        check "source stepping after gmin stepping" [ 1; 1; 1 ]
          (bumps
             ~options:{ Dc.default_options with Dc.max_iter = 12 }
             (Netlist.of_elements
                [ Netlist.vdc "v1" "in" "0" 10.0; Netlist.r "r1" "in" "a" 1e3; nfet ])));
  ]

(* --------------------------- AC analysis -------------------------- *)

let ac_tests =
  [
    Alcotest.test_case "rc low-pass -3dB at 1/(2 pi RC)" `Quick (fun () ->
        let r = 1000.0 and c = 1e-6 in
        let sys =
          Mna.build
            (Netlist.of_elements
               [
                 Netlist.vac "vin" "in" "0" ~dc:0.0 ~mag:1.0;
                 Netlist.r "r1" "in" "out" r;
                 Netlist.c "c1" "out" "0" c;
               ])
        in
        let op = Dc.solve sys in
        let fc = 1.0 /. (2.0 *. Float.pi *. r *. c) in
        let x = Ac.solve_one sys ~op ~freq:fc in
        let out = x.(Mna.node_index sys "out") in
        check_close 1e-6 "magnitude" (1.0 /. sqrt 2.0) (Complex.norm out);
        check_close 1e-4 "phase -45deg" (-45.0) (Complex.arg out *. 180.0 /. Float.pi));
    Alcotest.test_case "rl high-pass via inductor branch" `Quick (fun () ->
        let r = 100.0 and l = 1e-3 in
        let sys =
          Mna.build
            (Netlist.of_elements
               [
                 Netlist.vac "vin" "in" "0" ~dc:0.0 ~mag:1.0;
                 Netlist.r "r1" "in" "out" r;
                 Netlist.l "l1" "out" "0" l;
               ])
        in
        let op = Dc.solve sys in
        let fc = r /. (2.0 *. Float.pi *. l) in
        let x = Ac.solve_one sys ~op ~freq:fc in
        let out = x.(Mna.node_index sys "out") in
        check_close 1e-6 "corner magnitude" (1.0 /. sqrt 2.0) (Complex.norm out));
    Alcotest.test_case "sweep is monotone for low-pass" `Quick (fun () ->
        let sys =
          Mna.build
            (Netlist.of_elements
               [
                 Netlist.vac "vin" "in" "0" ~dc:0.0 ~mag:1.0;
                 Netlist.r "r1" "in" "out" 1000.0;
                 Netlist.c "c1" "out" "0" 1e-6;
               ])
        in
        let op = Dc.solve sys in
        let freqs = Stc_numerics.Interp.logspace 1.0 1e6 25 in
        let ac = Ac.prepare sys ~op and out = Mna.node_index sys "out" in
        let mags = Array.map (fun freq -> Complex.norm (Ac.solve ac ~freq).(out)) freqs in
        let ok = ref true in
        for i = 0 to Array.length mags - 2 do
          if mags.(i + 1) > mags.(i) +. 1e-12 then ok := false
        done;
        Alcotest.(check bool) "monotone decreasing" true !ok);
  ]

(* ------------------------- Transient analysis --------------------- *)

(* Runs a transient and checks its time grid: strictly increasing,
   ending exactly at [tstop], every source breakpoint before [tstop] a
   sample (or within [merge] of one), and no step shorter than
   1e-6·dt. Returns the system and the result. *)
let check_time_grid ?(merge = 0.0) name netlist ~tstop ~dt =
  let sys = Mna.build netlist in
  let result = Tran.run sys ~tstop ~dt in
  let times = result.Tran.times in
  let n = Array.length times in
  Alcotest.(check string) (name ^ ": last time is tstop") (Printf.sprintf "%h" tstop)
    (Printf.sprintf "%h" times.(n - 1));
  List.iter
    (fun e ->
      match e with
      | Netlist.Vsource { wave; _ } | Netlist.Isource { wave; _ } ->
        List.iter
          (fun b ->
            if b < tstop && not (Array.exists (fun t -> Float.abs (t -. b) <= merge) times)
            then Alcotest.failf "%s: breakpoint %h is not a sample" name b)
          (Wave.breakpoints wave ~tmax:tstop)
      | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Inductor _ | Netlist.Mosfet _ ->
        ())
    netlist.Netlist.elements;
  for i = 1 to n - 1 do
    let h = times.(i) -. times.(i - 1) in
    if not (h >= 1e-6 *. dt) then
      Alcotest.failf "%s: step %d to t = %h is %g s, under 1e-6 dt" name i times.(i) h
  done;
  (sys, result)

let tran_tests =
  [
    Alcotest.test_case "rc step response matches analytic" `Quick (fun () ->
        let r = 1000.0 and c = 1e-6 in
        let tau = r *. c in
        let step =
          Wave.Pulse
            { v1 = 0.0; v2 = 1.0; delay = 0.0; rise = 1e-9; fall = 1e-9;
              width = 1.0; period = 0.0 }
        in
        let sys =
          Mna.build
            (Netlist.of_elements
               [
                 Netlist.vwave "vin" "in" "0" step;
                 Netlist.r "r1" "in" "out" r;
                 Netlist.c "c1" "out" "0" c;
               ])
        in
        let result = Tran.run sys ~tstop:(5.0 *. tau) ~dt:(tau /. 100.0) in
        let w = Tran.node_waveform sys result "out" in
        let v_at_tau = Waveform.value_at w tau in
        check_close 2e-3 "1 - 1/e" (1.0 -. exp (-1.0)) v_at_tau;
        check_close 2e-3 "5 tau" (1.0 -. exp (-5.0)) (Waveform.final w));
    Alcotest.test_case "rl current rise" `Quick (fun () ->
        let r = 10.0 and l = 1e-3 in
        let tau = l /. r in
        let step =
          Wave.Pulse
            { v1 = 0.0; v2 = 1.0; delay = 0.0; rise = 1e-9; fall = 1e-9;
              width = 1.0; period = 0.0 }
        in
        let sys =
          Mna.build
            (Netlist.of_elements
               [
                 Netlist.vwave "vin" "in" "0" step;
                 Netlist.r "r1" "in" "a" r;
                 Netlist.l "l1" "a" "0" l;
               ])
        in
        let result = Tran.run sys ~tstop:(5.0 *. tau) ~dt:(tau /. 200.0) in
        let s = result.Tran.states in
        let last = Array.sub s.Stc_numerics.Mat.data ((s.rows - 1) * s.cols) s.cols in
        check_close 2e-3 "asymptote V/R" 0.1 (Mna.branch_current sys last "l1"));
    Alcotest.test_case "lc trapezoidal preserves oscillation" `Quick (fun () ->
        (* series RLC with tiny R: energy should persist over one period *)
        let l = 1e-3 and c = 1e-6 in
        let f0 = 1.0 /. (2.0 *. Float.pi *. sqrt (l *. c)) in
        let step =
          Wave.Pulse
            { v1 = 0.0; v2 = 1.0; delay = 0.0; rise = 1e-9; fall = 1e-9;
              width = 1.0; period = 0.0 }
        in
        let sys =
          Mna.build
            (Netlist.of_elements
               [
                 Netlist.vwave "vin" "in" "0" step;
                 Netlist.r "r1" "in" "a" 1.0;
                 Netlist.l "l1" "a" "b" l;
                 Netlist.c "c1" "b" "0" c;
               ])
        in
        let result = Tran.run sys ~tstop:(3.0 /. f0) ~dt:(1.0 /. f0 /. 400.0) in
        let w = Tran.node_waveform sys result "b" in
        let _, peak = Waveform.peak w in
        (* underdamped series RLC doubles the step at the first peak *)
        Alcotest.(check bool) "rings above 1.5" true (peak > 1.5));
    Alcotest.test_case "no sliver steps: tstop and breakpoints are samples" `Quick
      (fun () ->
        let rc source =
          Netlist.of_elements
            [ source; Netlist.r "r1" "in" "out" 1e3; Netlist.c "c1" "out" "0" 100e-9 ]
        in
        let edge_at_1s =
          Wave.Pulse
            { v1 = 0.0; v2 = 1.0; delay = 1.0; rise = 0.1; fall = 0.1; width = 0.5;
              period = 0.0 }
        in
        List.iter
          (fun (name, netlist, tstop, dt) ->
            ignore (check_time_grid name netlist ~tstop ~dt : Mna.t * Tran.result))
          [
            ("RC, DC source", rc (Netlist.vdc "vin" "in" "0" 1.0), 1.0, 0.1);
            (* on a flat waveform the steps double from dt/4 and reach
               0.85 s, 1 ns short of tstop *)
            ( "RC, DC source, tstop just past a step",
              rc (Netlist.vdc "vin" "in" "0" 1.0),
              0.85 +. 1e-9,
              0.1 );
            ("RC, pulse edge at 1 s", rc (Netlist.vwave "vin" "in" "0" edge_at_1s), 2.0, 0.1);
            ( "op-amp small-step bench",
              Opamp.netlist Opamp.nominal (Opamp.Unity_small_step 0.1),
              4e-6,
              4e-6 /. 1200.0 );
          ];
        (* 0.2 + 0.7 + 0.1 is one ulp short of the 1.0 period, so the
           first falling edge ends an ulp before the next rising edge
           starts; the two breakpoints are merged into one sample *)
        let square =
          Wave.Pulse
            { v1 = 0.0; v2 = 1.0; delay = 0.0; rise = 0.2; width = 0.7; fall = 0.1;
              period = 1.0 }
        in
        ignore
          (check_time_grid ~merge:1e-5 "RC, square wave with coinciding edges"
             (rc (Netlist.vwave "vin" "in" "0" square)) ~tstop:3.0 ~dt:0.1
            : Mna.t * Tran.result));
    Alcotest.test_case "a transient step allocates fewer than 10 minor words" `Quick
      (fun () ->
        (* the nominal small-step bench; the first run warms up what is
           done once per process *)
        let sys = Mna.build (Opamp.netlist Opamp.nominal (Opamp.Unity_small_step 0.1)) in
        let run () = Tran.run sys ~tstop:4e-6 ~dt:(4e-6 /. 1200.0) in
        ignore (run () : Tran.result);
        let w0 = Gc.minor_words () in
        let result = run () in
        let words = Gc.minor_words () -. w0 in
        let accepted = float_of_int (Array.length result.Tran.times - 1) in
        if words >= 10.0 *. accepted then
          Alcotest.failf "%.0f minor words over %.0f accepted points, %.1f a point" words
            accepted (words /. accepted));
    Alcotest.test_case "step controller: fewer points, growing in the settled tail" `Quick
      (fun () ->
        (* a 1 V step through a ramp of [tr] at [t0] into an RC; the exact
           response is the ramp response y below *)
        let r = 1000.0 and c = 1e-6 in
        let tau = r *. c in
        let t0 = 0.5 *. tau and tr = tau /. 50.0 in
        let tstop = 6.0 *. tau and dt = tau /. 100.0 in
        let step =
          Wave.Pulse
            { v1 = 0.0; v2 = 1.0; delay = t0; rise = tr; fall = tr; width = 1.0;
              period = 0.0 }
        in
        let netlist =
          Netlist.of_elements
            [
              Netlist.vwave "vin" "in" "0" step;
              Netlist.r "r1" "in" "out" r;
              Netlist.c "c1" "out" "0" c;
            ]
        in
        let sys, result = check_time_grid "pulse-driven RC" netlist ~tstop ~dt in
        let times = result.Tran.times in
        let w = Tran.node_waveform sys result "out" in
        let y s =
          if s <= 0.0 then 0.0
          else if s <= tr then (s -. (tau *. (1.0 -. exp (-.s /. tau)))) /. tr
          else 1.0 -. (tau /. tr *. (exp (tr /. tau) -. 1.0) *. exp (-.s /. tau))
        in
        Array.iter (fun (t, v) -> check_close 1e-5 (Printf.sprintf "v(%g)" t) (y (t -. t0)) v) w;
        let n = Array.length times in
        Alcotest.(check bool)
          (Printf.sprintf "%d points, fewer than tstop/dt = %g" n (tstop /. dt))
          true
          (float_of_int n < tstop /. dt);
        (* the longest step within [a, b) *)
        let longest a b =
          let m = ref 0.0 in
          for i = 1 to n - 1 do
            if times.(i - 1) >= a && times.(i) < b then
              m := Float.max !m (times.(i) -. times.(i - 1))
          done;
          !m
        in
        let early = longest (t0 +. tr) (t0 +. tr +. tau) in
        let tail = longest (tstop -. tau) tstop in
        if not (tail > 2.0 *. early && tail > 2.0 *. dt) then
          Alcotest.failf "tail step %g not above twice the post-edge step %g and dt %g" tail
            early dt);
  ]

(* ------------------------- Waveform measures ---------------------- *)

let waveform_tests =
  [
    Alcotest.test_case "rise time of a ramp" `Quick (fun () ->
        let w = Array.init 101 (fun i ->
            let t = float_of_int i /. 100.0 in
            (t, Float.min 1.0 (t *. 2.0)))
        in
        (match Waveform.rise_time w with
         | Some rt -> check_close 1e-6 "10-90 over slope 2" 0.4 rt
         | None -> Alcotest.fail "no rise time"));
    Alcotest.test_case "overshoot of damped sinusoid" `Quick (fun () ->
        let w = Array.init 2001 (fun i ->
            let t = float_of_int i /. 100.0 in
            (t, 1.0 -. (exp (-.t) *. cos (5.0 *. t))))
        in
        let os = Waveform.overshoot w in
        Alcotest.(check bool) "positive overshoot" true (os > 0.1 && os < 0.8));
    Alcotest.test_case "settling time" `Quick (fun () ->
        let w = Array.init 2001 (fun i ->
            let t = float_of_int i /. 200.0 in
            (t, 1.0 -. exp (-.t)))
        in
        (match Waveform.settling_time ~band:0.01 w with
         | Some ts -> check_close 0.05 "ln 100" (log 100.0) ts
         | None -> Alcotest.fail "no settling"));
    Alcotest.test_case "slew rate of a ramp" `Quick (fun () ->
        let w = Array.init 101 (fun i ->
            let t = float_of_int i /. 100.0 in
            (t, Float.min 1.0 (t *. 2.0)))
        in
        (match Waveform.slew_rate w with
         | Some s -> check_close 1e-6 "slope" 2.0 s
         | None -> Alcotest.fail "no slew"));
    Alcotest.test_case "zero-step waveform" `Quick (fun () ->
        let w = [| (0.0, 1.0); (1.0, 1.0) |] in
        Alcotest.(check bool) "no rise" true (Waveform.rise_time w = None);
        check_close 0.0 "overshoot 0" 0.0 (Waveform.overshoot w));
  ]

(* ------------------------------ Opamp ----------------------------- *)

let opamp_tests =
  [
    Alcotest.test_case "nominal specs are sane" `Slow (fun () ->
        let v = Measure_opamp.measure Opamp.nominal in
        Alcotest.(check bool) "gain" true
          (v.Measure_opamp.gain > 5000.0 && v.Measure_opamp.gain < 100000.0);
        Alcotest.(check bool) "ugf ~ 2 MHz" true
          (v.Measure_opamp.unity_gain_freq > 1.0 && v.Measure_opamp.unity_gain_freq < 5.0);
        Alcotest.(check bool) "bw < ugf" true
          (v.Measure_opamp.bandwidth_3db < v.Measure_opamp.unity_gain_freq *. 1e6);
        Alcotest.(check bool) "slew positive" true (v.Measure_opamp.slew_rate > 0.0);
        Alcotest.(check bool) "iq ~ 100uA" true
          (v.Measure_opamp.quiescent_current > 50.0
           && v.Measure_opamp.quiescent_current < 250.0);
        Alcotest.(check bool) "cm gain < open-loop gain" true
          (v.Measure_opamp.common_mode_gain < v.Measure_opamp.gain));
    Alcotest.test_case "gain-bandwidth consistency" `Slow (fun () ->
        (* single-pole model: gain * f3db ~ ugf *)
        let v = Measure_opamp.measure Opamp.nominal in
        let gbw = v.Measure_opamp.gain *. v.Measure_opamp.bandwidth_3db in
        let ugf_hz = v.Measure_opamp.unity_gain_freq *. 1e6 in
        Alcotest.(check bool) "within 30%" true
          (gbw > 0.7 *. ugf_hz && gbw < 1.3 *. ugf_hz));
    Alcotest.test_case "slew tracks tail current over cc" `Slow (fun () ->
        let p = Opamp.nominal in
        let v1 = Measure_opamp.measure p in
        let p2 = { p with Stc_circuit.Opamp.cc = p.Stc_circuit.Opamp.cc *. 1.3 } in
        let v2 = Measure_opamp.measure p2 in
        Alcotest.(check bool) "bigger cc slews slower" true
          (v2.Measure_opamp.slew_rate < v1.Measure_opamp.slew_rate));
    Alcotest.test_case "all benches build and validate" `Quick (fun () ->
        List.iter
          (fun bench ->
            let netlist = Opamp.netlist Opamp.nominal bench in
            match Netlist.validate netlist with
            | Ok () -> ()
            | Error msg -> Alcotest.fail msg)
          [ Opamp.Open_loop_gain; Opamp.Common_mode; Opamp.Power_supply;
            Opamp.Unity_small_step 0.1; Opamp.Unity_large_step 4.0;
            Opamp.Short_circuit ]);
  ]

let suites =
  [
    ("circuit.wave", wave_tests);
    ("circuit.mosfet", mosfet_tests);
    ("circuit.mna", mna_tests);
    ("circuit.dc", dc_tests);
    ("circuit.ac", ac_tests);
    ("circuit.tran", tran_tests);
    ("circuit.waveform", waveform_tests);
    ("circuit.opamp", opamp_tests);
  ]
