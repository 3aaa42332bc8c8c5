(* Serve-smoke: end-to-end loopback exercise of the stc_net stack, run
   by `make serve-smoke` (and `make ci`). Boots a server on an
   ephemeral port, pushes 100 devices through it from two concurrent
   clients — one on the BATCH path, one on the pipelined BIN path —
   while the main thread hot-reloads the flow under the traffic, then
   scrapes METRICS and shuts the server down over the wire. Every
   outcome must be bit-identical to the offline [Floor.process]
   reference. Exits 0 on success, 1 on any failure. *)

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
module Obs = Stc_obs.Registry

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

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

let train_flow () =
  let train = Device_data.make ~specs ~values:(population 1 800) in
  let test = Device_data.make ~specs ~values:(population 2 400) in
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
  result.Compaction.flow

let same_outcomes reference got =
  Array.length reference = Array.length got
  && Array.for_all2
       (fun a b -> Protocol.format_outcome a = Protocol.format_outcome b)
       reference got

let () =
  let flow = train_flow () in
  let path = Filename.temp_file "stc_smoke" ".flow" in
  (match Flow_io.save ~path flow with
   | Ok () -> ()
   | Error e -> failwith e);
  (* the contract the wire must reproduce, per client *)
  let devices = [| population 3 50; population 4 50 |] in
  let reference =
    Array.map
      (fun rows ->
        Floor.with_engine flow (fun engine ->
            Floor.process ~retest:(Floor.full_test flow) engine rows))
      devices
  in
  let registry = Registry.create () in
  (match Registry.load registry ~name:"dut" ~path with
   | Ok _ -> ()
   | Error e -> failwith e);
  Server.with_server registry (fun server ->
      let port = Server.port server in
      Printf.printf "serve-smoke: 127.0.0.1:%d pid %d\n%!" port
        (Unix.getpid ());

      (* two concurrent clients, one per serving path *)
      let results = [| None; None |] in
      let clients_done = Atomic.make 0 in
      let worker i send =
        Thread.create
          (fun () ->
            let c = Client.connect ~port () in
            Fun.protect
              ~finally:(fun () ->
                Client.quit c;
                Atomic.incr clients_done)
              (fun () -> results.(i) <- Some (send c devices.(i))))
          ()
      in
      let t0 = worker 0 (fun c rows -> Client.bin_batch c ~flow:"dut" rows) in
      let t1 = worker 1 (fun c rows -> Client.stream c ~flow:"dut" rows) in

      (* hot reload the identical flow under the traffic: every swap is
         a genuine engine replacement, so outcomes prove atomicity *)
      let reloads = ref 0 in
      while Atomic.get clients_done < 2 do
        (match Registry.reload registry ~name:"dut" ~force:true ~path with
         | Ok (`Reloaded _) -> incr reloads
         | Ok (`Unchanged _) -> ()
         | Error e -> failwith ("mid-run reload failed: " ^ e));
        Thread.yield ()
      done;
      Thread.join t0;
      Thread.join t1;
      check
        (Printf.sprintf "hot reload exercised under load (%d swaps)" !reloads)
        (!reloads > 0);
      Array.iteri
        (fun i result ->
          let what = if i = 0 then "BATCH client" else "BIN-stream client" in
          match result with
          | Some (Ok outcomes) ->
            check
              (Printf.sprintf "%s bit-identical to offline reference (%d devices)"
                 what (Array.length outcomes))
              (same_outcomes reference.(i) outcomes)
          | Some (Error e) -> check (what ^ ": " ^ e) false
          | None -> check (what ^ " returned no result") false)
        results;

      (* metrics scrape through a fresh connection *)
      let c = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.metrics c () with
           | Error e -> check ("METRICS text: " ^ e) false
           | Ok text -> (
             match Obs.parse_text text with
             | Error e -> check ("METRICS text parse: " ^ e) false
             | Ok metrics ->
               (* a missing metric reads -1, which fails every check *)
               let value name =
                 match List.assoc_opt name metrics with
                 | Some v -> v
                 | None -> -1.0
               in
               check "METRICS text parses, 100 rows counted"
                 (value "stc_net_rows_total" >= 100.0);
               check "METRICS counts both request paths"
                 (value "stc_net_batches_total" >= 1.0
                 && value "stc_net_flushes_total" >= 1.0);
               check "METRICS has a nonzero request counter"
                 (value "stc_net_requests_total" >= 1.0);
               (* the overload-defense counters must be exported even
                  when idle (0 until an attack), so dashboards can
                  alert on them without waiting for an incident *)
               check "METRICS exports the load-shedding counter"
                 (value "stc_net_shed_total" >= 0.0);
               check "METRICS exports the idle-reap counter"
                 (value "stc_net_idle_reaped_total" >= 0.0);
               check "METRICS exports the write-timeout counter"
                 (value "stc_net_write_timeouts_total" >= 0.0);
               check "METRICS exports the accept-error counter"
                 (value "stc_net_accept_errors_total" >= 0.0)));
          (* clean shutdown over the wire *)
          match Client.shutdown c with
          | Ok () -> ()
          | Error e -> check ("SHUTDOWN: " ^ e) false);
      Server.wait ~poll_s:0.01 server;
      check "server stopped after wire SHUTDOWN" (not (Server.running server)));
  Registry.shutdown registry;
  (try Sys.remove path with Sys_error _ -> ());
  if !failures = 0 then begin
    print_endline "serve-smoke: all checks passed";
    exit 0
  end
  else begin
    Printf.eprintf "serve-smoke: %d check(s) failed\n" !failures;
    exit 1
  end
