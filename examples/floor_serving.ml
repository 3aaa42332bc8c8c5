(* Floor serving: train a compacted flow once, persist it, reload it in
   a "production" process and bin a stream of devices in parallel
   batches, escalating guard-band parts to full test.

     dune exec examples/floor_serving.exe *)

module Spec = Stc.Spec
module Device_data = Stc.Device_data
module Compaction = Stc.Compaction
module Guard_band = Stc.Guard_band
module Flow_io = Stc_floor.Flow_io
module Device_csv = Stc_floor.Device_csv
module Floor = Stc_floor.Floor
module Rng = Stc_numerics.Rng

let specs =
  [|
    Spec.make ~name:"s0" ~unit_label:"V" ~nominal:1.0 ~lower:0.5 ~upper:1.5;
    Spec.make ~name:"s1" ~unit_label:"V" ~nominal:1.0 ~lower:0.5 ~upper:1.5;
    Spec.make ~name:"s2" ~unit_label:"V" ~nominal:2.0 ~lower:1.3 ~upper:2.5;
  |]

let population seed n =
  let rng = Rng.create seed in
  Array.init n (fun _ ->
      let a = Rng.gaussian rng ~mean:1.0 ~sigma:0.25 in
      let b = Rng.gaussian rng ~mean:1.0 ~sigma:0.25 in
      [| a; b; a +. b |])

let () =
  (* --- training side: compact the test set and save the flow -------- *)
  let train = Device_data.make ~specs ~values:(population 1 1500) in
  let test = Device_data.make ~specs ~values:(population 2 800) in
  let config =
    {
      Compaction.default_config with
      Compaction.guard_fraction = 0.02;
      tolerance = 0.03;
      learner = Compaction.Epsilon_svr { c = 10.0; epsilon = 0.1; gamma = Some 4.0 };
    }
  in
  let result =
    Compaction.greedy ~order:(Stc.Order.Given [| 2; 0; 1 |]) config ~train ~test
  in
  let flow_path = Filename.temp_file "stc_flow" ".stc" in
  (match Flow_io.save ~path:flow_path result.Compaction.flow with
   | Ok () -> Printf.printf "trained flow saved to %s\n" flow_path
   | Error e -> failwith e);

  (* --- production side: reload and serve a device stream ------------ *)
  let flow =
    match Flow_io.load ~path:flow_path with
    | Ok flow -> flow
    | Error e -> failwith e
  in
  Printf.printf "reloaded flow measures %d of %d specs\n\n"
    (Array.length flow.Compaction.kept)
    (Array.length flow.Compaction.specs);
  let stream = population 3 20_000 in
  Floor.with_engine
    ~config:{ Floor.batch_size = 512; domains = 4 }
    flow
    (fun engine ->
      (* guard-band parts get the full specification test *)
      let outcomes =
        Floor.process ~retest:(Floor.full_test flow) engine stream
      in
      print_string (Floor.report engine);
      (* every verdict matches the in-memory flow, whatever the batching *)
      let mismatches = ref 0 in
      Array.iteri
        (fun i o ->
          if
            not
              (Guard_band.equal_verdict o.Floor.verdict
                 (Compaction.flow_verdict flow stream.(i)))
          then incr mismatches)
        outcomes;
      Printf.printf "\nverdict mismatches vs flow_verdict: %d\n" !mismatches);
  Sys.remove flow_path
