(* Network serving: train a compacted flow, publish it from an in-process
   TCP server, and bin devices from a client over the line protocol —
   with a zero-downtime hot reload and a live METRICS scrape on the way.

     dune exec examples/net_serving.exe *)

module Spec = Stc.Spec
module Device_data = Stc.Device_data
module Compaction = Stc.Compaction
module Flow_io = Stc_floor.Flow_io
module Floor = Stc_floor.Floor
module Rng = Stc_numerics.Rng
module Registry = Stc_net.Registry
module Server = Stc_net.Server
module Client = Stc_net.Client
module Protocol = Stc_net.Protocol

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
      learner =
        Compaction.Epsilon_svr { c = 10.0; epsilon = 0.1; gamma = Some 4.0 };
    }
  in
  let result =
    Compaction.greedy ~order:(Stc.Order.Given [| 2; 0; 1 |]) config ~train ~test
  in
  let flow_path = Filename.temp_file "stc_flow" ".stc" in
  (match Flow_io.save ~path:flow_path result.Compaction.flow with
   | Ok () -> Printf.printf "trained flow saved to %s\n" flow_path
   | Error e -> failwith e);

  (* --- serving side: a registry + server, a client over loopback ---- *)
  let registry = Registry.create () in
  (match Registry.load registry ~name:"opamp" ~path:flow_path with
   | Ok _ -> ()
   | Error e -> failwith e);
  Server.with_server registry (fun server ->
      let port = Server.port server in
      Printf.printf "serving on 127.0.0.1:%d\n" port;
      let c = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.quit c)
        (fun () ->
          let devices = population 3 200 in
          (match Client.bin_batch c ~flow:"opamp" devices with
           | Error e -> failwith e
           | Ok outcomes ->
             let count p = Array.length (Array.of_seq (Seq.filter p (Array.to_seq outcomes))) in
             Printf.printf "binned %d devices: %d ship, %d scrap, %d retest\n"
               (Array.length outcomes)
               (count (fun o -> o.Floor.bin = Floor.Ship))
               (count (fun o -> o.Floor.bin = Floor.Scrap))
               (count (fun o -> o.Floor.bin = Floor.Retest)));

          (* hot reload: re-saving the identical flow is a no-op... *)
          (match Client.reload c ~flow:"opamp" () with
           | Ok (`Unchanged, detail) -> Printf.printf "reload: %s\n" detail
           | Ok (`Reloaded, detail) -> Printf.printf "reload: %s\n" detail
           | Error e -> failwith e);
          (* ...while a changed file swaps atomically, mid-traffic *)
          (match
             Flow_io.save ~path:flow_path (Compaction.identity_flow specs)
           with
           | Ok () -> ()
           | Error e -> failwith e);
          (match Client.reload c ~flow:"opamp" () with
           | Ok (_, detail) -> Printf.printf "reload: %s\n" detail
           | Error e -> failwith e);

          (* live metrics, straight off the wire *)
          match Client.metrics c () with
          | Error e -> failwith e
          | Ok text ->
            let interesting line =
              List.exists
                (fun p ->
                  String.length line >= String.length p
                  && String.sub line 0 (String.length p) = p)
                [ "counter stc_net_"; "gauge stc_net_" ]
            in
            List.iter
              (fun l -> if interesting l then Printf.printf "  %s\n" l)
              (String.split_on_char '\n' text)));
  Registry.shutdown registry;
  Sys.remove flow_path;
  print_endline "done."
