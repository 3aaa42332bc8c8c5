(* Bit-level pins on the circuit simulator: expected values are
   IEEE-754 bit patterns (Int64.bits_of_float), captured before the
   netlist was compiled into index-resolved stamps and checked
   unchanged after. A mismatch means stamp order, elimination order or
   companion arithmetic changed. That is a numerics change: it needs
   its own gate and a deliberate re-pin with before/after numbers in
   EXPERIMENTS.md.

   The op-amp pins are full Table 1 spec vectors of four instances.
   The small netlists cover what the op-amp benches never reach: the
   inductor companion inside a transient, backward Euler, VCVS and
   VCCS, sine/PWL/periodic-pulse sources, AC current drive, the gmin-
   and source-stepping fallbacks of the DC solver, and Dc.sweep. *)

module Netlist = Stc_circuit.Netlist
module Wave = Stc_circuit.Wave
module Mna = Stc_circuit.Mna
module Dc = Stc_circuit.Dc
module Ac = Stc_circuit.Ac
module Tran = Stc_circuit.Tran
module Opamp = Stc_circuit.Opamp
module Measure_opamp = Stc_circuit.Measure_opamp

let hex_bits b = Printf.sprintf "0x%016LxL" b

let hex v = hex_bits (Int64.bits_of_float v)

(* ---------------------------- op-amp ----------------------------- *)

(* The sizings of instances 0-3 at seed 2005 (Montecarlo.instance_rng,
   attempt 0), in Experiment.opamp_device's parameter order: W/L of
   M1, M3, M5, M6, M7, M8, then Cc and CL. *)
let opamp_draws =
  [|
    [|
      0x1.35bdbdde027aep-16; 0x1.17b9d26652239p-20; 0x1.f721d547a360ep-20;
      0x1.03fe368e9691dp-20; 0x1.1ba8c2477d3c3p-18; 0x1.f298309c8463ep-21;
      0x1.5a4e57590c39p-13; 0x1.22c59fef28c03p-20; 0x1.664741b100bb4p-13;
      0x1.f9c3de004f6a6p-21; 0x1.19c55fecb051ep-18; 0x1.095f8737cee16p-20;
      0x1.5e85cea9ea613p-38; 0x1.3f55140689675p-35
    |];
    [|
      0x1.4a6ec028641aep-16; 0x1.23b4abfe1aa85p-20; 0x1.0efffe43544c8p-19;
      0x1.e6792877b7a9bp-21; 0x1.0a4b2892d168ap-18; 0x1.0fe75568293e2p-20;
      0x1.7e920818cb91bp-13; 0x1.187625d46c146p-20; 0x1.8f1637965df69p-13;
      0x1.e94244f554189p-21; 0x1.03bcf59b668b2p-18; 0x1.ea48ad262e09cp-21;
      0x1.652e54d4a333ep-38; 0x1.824c33fb91215p-35
    |];
    [|
      0x1.1b0f3bc0716fap-16; 0x1.094505ea83e84p-20; 0x1.18cc1c305f67ap-19;
      0x1.ffdc9b3d93ac6p-21; 0x1.19aa3912b588dp-18; 0x1.184c028db1cdcp-20;
      0x1.6afbb9c405e11p-13; 0x1.15c3e251554bap-20; 0x1.64d548e778793p-13;
      0x1.0b07bd55fff1ep-20; 0x1.0cef9cfe7cf38p-18; 0x1.081b8bebcf20ep-20;
      0x1.4d0df6f26692cp-38; 0x1.64b48c6c9afe2p-35
    |];
    [|
      0x1.451c108ed2c12p-16; 0x1.04f05a5d5c881p-20; 0x1.19fd1cb74243ep-19;
      0x1.e91389fbef597p-21; 0x1.fa25197d1cbeep-19; 0x1.023550f2843aap-20;
      0x1.a1804548c0fd8p-13; 0x1.fdd03d6980485p-21; 0x1.5ed532bd41db4p-13;
      0x1.0586ab78ad32ep-20; 0x1.1ac67dfdd4414p-18; 0x1.0b9c185ba9ef1p-20;
      0x1.636ae220f44dbp-38; 0x1.5707e7d6991c5p-35
    |];
  |]

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

(* Uncalibrated Measure_opamp.to_array of each draw. *)
let opamp_specs =
  [|
    [|
      0x40d5880afd44eb42L; 0x405b2f72e03eda17L; 0x4001712de62015d0L;
      0x3fe2d8be72bed8d6L; 0x4014a5c47f958bacL; 0x3f96baf36c357e2cL;
      0x407928e9acfda96cL; 0x405c63d34d054486L; 0x3fe1ef6ebcb68cf6L;
      0x3fe0387b1e3419c7L; 0x4036216145c18b75L
    |];
    [|
      0x40d7610732f0b851L; 0x40571d19c0030934L; 0x4000288d6113956eL;
      0x3fdfd2f20e254cd8L; 0x40187479017cea20L; 0x3f92f52628df29ceL;
      0x407bcf3e403ceb44L; 0x40603e6c461eff7fL; 0x3fd3058a6dcbbf41L;
      0x3fe431e43b24db05L; 0x40394b4c0324b87dL
    |];
    [|
      0x40d74a7601fc9f38L; 0x4058ef9e33bce454L; 0x400127bda5baac19L;
      0x3fe243515ce0ce64L; 0x40154ea3f558cddfL; 0x3f99eef9c47d1966L;
      0x407a2cadcfd3b741L; 0x405be2a66fddcf83L; 0x3fde0b80abe96665L;
      0x3fe19bbcdb52ed8aL; 0x403847da216fa978L
    |];
    [|
      0x40dd97cf048a32ffL; 0x40534454cc3054f5L; 0x400140bb5cc90c99L;
      0x3fe0114ae84c4a0cL; 0x401837fd0b0124bbL; 0x3f8c5bde7d064607L;
      0x4079b8d00973e9eeL; 0x405afb8c1708adbfL; 0x3fe37d736a2cd95dL;
      0x3fdf584b62b926ceL; 0x403e632dfcd3c157L
    |];
  |]

let opamp_tests =
  List.init (Array.length opamp_draws) (fun i ->
      Alcotest.test_case (Printf.sprintf "op-amp spec vector, instance %d" i) `Quick
        (fun () ->
          let measured =
            Measure_opamp.to_array (Measure_opamp.measure (params_of_draw opamp_draws.(i)))
          in
          Array.iteri
            (fun j expected ->
              Alcotest.(check string) Measure_opamp.names.(j) (hex_bits expected)
                (hex measured.(j)))
            opamp_specs.(i)))

(* ------------------------ small netlists ------------------------- *)

(* Every unknown at every time point, times included. *)
let tran_values ?options netlist ~tstop ~dt =
  let sys = Mna.build netlist in
  let r = Tran.run ?options sys ~tstop ~dt in
  Array.concat (Array.to_list (Array.map2 (fun t x -> Array.append [| t |] x) r.Tran.times r.Tran.states))

let ac_values netlist ~freqs =
  let sys = Mna.build netlist in
  let op = Dc.solve sys in
  Array.concat
    (op
    :: Array.to_list
         (Array.map
            (fun p ->
              Array.concat
                (Array.to_list
                   (Array.map (fun z -> [| z.Complex.re; z.Complex.im |]) p.Ac.solution)))
            (Ac.sweep sys ~op ~freqs)))

let dc_values ?options netlist = Dc.solve ?options (Mna.build netlist)

let nfet name ~d ~g = Netlist.nmos name ~d ~g ~s:"0" ~w:10e-6 ~l:1e-6 ()

let be = Tran.Backward_euler

let cases =
  let open Netlist in
  [
    ( "inductor companion: RLC step, trapezoidal",
      fun () ->
        tran_values ~tstop:20e-6 ~dt:1e-7
          (of_elements
             [
               vwave "v1" "in" "0"
                 (Wave.Pulse
                    { v1 = 0.0; v2 = 1.0; delay = 1e-6; rise = 1e-7; fall = 1e-7;
                      width = 8e-6; period = 0.0 });
               r "r1" "in" "a" 10.0;
               l "l1" "a" "b" 1e-4;
               c "c1" "b" "0" 1e-8;
               r "r2" "b" "0" 1e4;
             ]) );
    ( "inductor companion: RL step, backward Euler",
      fun () ->
        tran_values
          ~options:{ (Tran.default_options ~dt:2e-7) with Tran.method_ = be }
          ~tstop:2e-5 ~dt:2e-7
          (of_elements
             [
               vwave "v1" "in" "0"
                 (Wave.Pulse
                    { v1 = 0.0; v2 = 2.0; delay = 1e-6; rise = 5e-7; fall = 5e-7;
                      width = 1e-5; period = 0.0 });
               r "r1" "in" "a" 100.0;
               l "l1" "a" "0" 1e-3;
             ]) );
    ( "VCVS: DC and AC",
      fun () ->
        ac_values ~freqs:[| 1e2; 1e4; 1e5; 1e6; 1e7 |]
          (of_elements
             [
               vac "v1" "in" "0" ~dc:0.3 ~mag:1.0;
               r "rin" "in" "0" 1e3;
               Vcvs { name = "e1"; p = "out"; n = "0"; cp = "in"; cn = "0"; gain = -4.7 };
               r "rl" "out" "x" 2.2e3;
               r "r2" "x" "0" 1e3;
               c "c2" "x" "0" 1e-9;
             ]) );
    ( "VCCS: DC and AC",
      fun () ->
        ac_values ~freqs:[| 1e2; 1e4; 1e5; 1e6; 1e7 |]
          (of_elements
             [
               vac "v1" "in" "0" ~dc:0.5 ~mag:1.0;
               Vccs { name = "g1"; p = "out"; n = "0"; cp = "in"; cn = "0"; gm = 2e-3 };
               r "rl" "out" "0" 5e3;
               c "cl" "out" "0" 1e-9;
             ]) );
    ( "VCCS: periodic pulse, trapezoidal",
      fun () ->
        tran_values ~tstop:1e-5 ~dt:1e-7
          (of_elements
             [
               vwave "v1" "in" "0"
                 (Wave.Pulse
                    { v1 = 0.0; v2 = 0.5; delay = 0.5e-6; rise = 0.1e-6; fall = 0.1e-6;
                      width = 1e-6; period = 3e-6 });
               Vccs { name = "g1"; p = "out"; n = "0"; cp = "in"; cn = "0"; gm = 2e-3 };
               r "rl" "out" "0" 5e3;
               c "cl" "out" "0" 1e-9;
             ]) );
    ( "sine current source, trapezoidal",
      fun () ->
        tran_values ~tstop:3e-5 ~dt:2e-7
          (of_elements
             [
               Isource
                 { name = "i1"; p = "0"; n = "a";
                   wave = Wave.Sine { offset = 1e-3; amplitude = 5e-4; freq = 1e5; phase = 0.3 };
                   ac = 0.0 };
               r "r1" "a" "0" 1e3;
               c "c1" "a" "0" 1e-9;
             ]) );
    ( "PWL source, backward Euler",
      fun () ->
        tran_values
          ~options:{ (Tran.default_options ~dt:1e-7) with Tran.method_ = be }
          ~tstop:8e-6 ~dt:1e-7
          (of_elements
             [
               vwave "v1" "in" "0"
                 (Wave.Pwl
                    [| (0.0, 0.0); (1e-6, 1.0); (3.05e-6, 1.0); (4e-6, -0.5); (6e-6, 0.2) |]);
               r "r1" "in" "a" 1e3;
               c "c1" "a" "0" 1e-9;
               nfet "m1" ~d:"a" ~g:"a";
             ]) );
    ( "RLC tank: AC current drive",
      fun () ->
        ac_values ~freqs:[| 1e4; 1.5e5; 1.59e5; 1.6e5; 1e6 |]
          (of_elements
             [
               Isource { name = "i1"; p = "0"; n = "a"; wave = Wave.Dc 0.0; ac = 1.0 };
               r "r1" "a" "0" 1e3;
               l "l1" "a" "0" 1e-3;
               c "c1" "a" "0" 1e-9;
             ]) );
    ( "gmin stepping: DC-floating node",
      fun () ->
        dc_values
          ~options:{ Dc.default_options with Dc.gmin = 0.0 }
          (of_elements
             [
               vdc "v1" "in" "0" 2.0;
               r "r1" "in" "a" 1e3;
               c "c1" "a" "f" 1e-9;
               nfet "m1" ~d:"a" ~g:"a";
             ]) );
    ( "source stepping: 10 V past the Newton budget",
      fun () ->
        dc_values
          ~options:{ Dc.default_options with Dc.max_iter = 12 }
          (of_elements
             [ vdc "v1" "in" "0" 10.0; r "r1" "in" "a" 1e3; nfet "m1" ~d:"a" ~g:"a" ]) );
    ( "Dc.sweep: NMOS inverter transfer curve",
      fun () ->
        let sys =
          Mna.build
            (of_elements
               [
                 vdc "vdd" "vdd" "0" 5.0;
                 vdc "vin" "in" "0" 0.0;
                 r "rd" "vdd" "out" 10e3;
                 nfet "m1" ~d:"out" ~g:"in";
               ])
        in
        Dc.sweep sys ~source:"vin" ~values:(Array.init 11 (fun i -> 0.5 *. float_of_int i))
        |> Array.to_list
        |> List.concat_map (fun (v, x) -> v :: Array.to_list x)
        |> Array.of_list );
  ]

(* (case, value count, MD5 of the comma-joined %016Lx bit patterns, the
   last value's bits) *)
let pins =
  [
    ( "inductor companion: RLC step, trapezoidal",
      1206, "52d9382f45226ac6260cbf9dd86e1e3e", 0x3f713749ecf43a37L );
    ( "inductor companion: RL step, backward Euler",
      510, "e432c06bca2bb8d91f24ca4dba40460e", 0x3f7730d1d19efbccL );
    ( "VCVS: DC and AC",
      55, "5e49adc8650aa9ae92436f2a78b7078b", 0x3ef0327b7d6c52ddL );
    ( "VCCS: DC and AC",
      33, "a4f48f3b1ce8cb3dcd0cdf6de9f89efb", 0x0000000000000000L );
    ( "VCCS: periodic pulse, trapezoidal",
      404, "2ad2aa9b1e55289eceae6e0a66e860ce", 0xbd619799812dea11L );
    ( "sine current source, trapezoidal",
      302, "36a11e295af472962c1b9aa5c98a487e", 0x3fec7f7177e97c17L );
    ( "PWL source, backward Euler",
      328, "f2bd6358b47c71b54f45cb02e87f241d", 0xbef99b64a8497be8L );
    ( "RLC tank: AC current drive",
      22, "a41512b6b12408c83fe2b69b665f9902", 0xbf70ee47dffa929dL );
    ( "gmin stepping: DC-floating node",
      4, "f1d633b1106b2ae6f623ce8ee06d3e44", 0xbf3c950122db2d1eL );
    ( "source stepping: 10 V past the Newton budget",
      3, "2e71d3df8c67259aeb64dad14bfe07fa", 0xbf794e93d5cb568aL );
    ( "Dc.sweep: NMOS inverter transfer curve",
      66, "36c52a629433c700381d5bb2047bc5d6", 0xbd95fd7fe1796495L );
  ]

let digest values =
  Digest.to_hex
    (Digest.string
       (String.concat ","
          (Array.to_list
             (Array.map (fun v -> Printf.sprintf "%016Lx" (Int64.bits_of_float v)) values))))

let netlist_tests =
  List.map
    (fun (name, run) ->
      Alcotest.test_case name `Quick (fun () ->
          let _, count, md5, last = List.find (fun (n, _, _, _) -> n = name) pins in
          let values = run () in
          Alcotest.(check int) "value count" count (Array.length values);
          Alcotest.(check string) "last value" (hex_bits last)
            (hex values.(Array.length values - 1));
          Alcotest.(check string) "all values" md5 (digest values)))
    cases

let suites = [ ("circuit.pins", opamp_tests @ netlist_tests) ]
