(* Tests for the floor serving subsystem: the domain pool, flow
   persistence (byte-stable round trips), the device CSV, and the
   batched serving engine's verdict parity with the in-memory flow. *)

module Spec = Stc.Spec
module Device_data = Stc.Device_data
module Compaction = Stc.Compaction
module Guard_band = Stc.Guard_band
module Tester = Stc.Tester
module Adaptive_guard = Stc.Adaptive_guard
module Pool = Stc_process.Pool
module Flow_io = Stc_floor.Flow_io
module Device_csv = Stc_floor.Device_csv
module Floor = Stc_floor.Floor
module Rng = Stc_numerics.Rng

(* spec names deliberately contain spaces (like the op-amp's) to cover
   field encoding *)
let specs =
  [|
    Spec.make ~name:"dc gain" ~unit_label:"-" ~nominal:1.0 ~lower:0.5 ~upper:1.5;
    Spec.make ~name:"slew rate" ~unit_label:"V/us" ~nominal:1.0 ~lower:0.5
      ~upper:1.5;
    Spec.make ~name:"sum spec" ~unit_label:"V" ~nominal:2.0 ~lower:1.2
      ~upper:2.8;
    Spec.make ~name:"noise" ~unit_label:"" ~nominal:0.0 ~lower:(-1.0) ~upper:1.0;
  |]

let population seed n =
  let rng = Rng.create seed in
  Array.init n (fun _ ->
      let a = Rng.gaussian rng ~mean:1.0 ~sigma:0.25 in
      let b = Rng.gaussian rng ~mean:1.0 ~sigma:0.25 in
      let noise = Rng.gaussian rng ~mean:0.0 ~sigma:0.6 in
      [| a; b; a +. b; noise |])

let data seed n = Device_data.make ~specs ~values:(population seed n)

let config =
  {
    Compaction.default_config with
    Compaction.tolerance = 0.02;
    guard_fraction = 0.02;
  }

let trained_flow = lazy (Compaction.make_flow config (data 1 400) ~dropped:[| 2 |])

let check_verdict =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Guard_band.verdict_to_string v))
    Guard_band.equal_verdict

(* ------------------------------- pool ----------------------------- *)

let pool_tests =
  [
    Alcotest.test_case "every task runs exactly once" `Quick (fun () ->
        List.iter
          (fun domains ->
            Pool.with_pool ~domains (fun pool ->
                let hits = Array.make 101 0 in
                Pool.run pool ~n:101 (fun i -> hits.(i) <- hits.(i) + 1);
                Alcotest.(check bool) "all once" true
                  (Array.for_all (fun h -> h = 1) hits)))
          [ 1; 4 ]);
    Alcotest.test_case "pool is reusable across jobs" `Quick (fun () ->
        Pool.with_pool ~domains:3 (fun pool ->
            let total = Atomic.make 0 in
            for _ = 1 to 5 do
              Pool.run pool ~n:40 (fun i ->
                  ignore (Atomic.fetch_and_add total (i + 1)))
            done;
            Alcotest.(check int) "5 * sum(1..40)" (5 * 820) (Atomic.get total)));
    Alcotest.test_case "zero tasks is a no-op" `Quick (fun () ->
        Pool.with_pool ~domains:2 (fun pool -> Pool.run pool ~n:0 ignore));
    Alcotest.test_case "task exception reaches the submitter" `Quick (fun () ->
        Pool.with_pool ~domains:2 (fun pool ->
            match Pool.run pool ~n:10 (fun i -> if i = 7 then failwith "boom") with
            | exception Failure _ -> ()
            | () -> Alcotest.fail "expected the task failure to propagate"));
    Alcotest.test_case "bad domain counts rejected" `Quick (fun () ->
        (match Pool.create ~domains:0 with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected Invalid_argument"));
  ]

(* ------------------------- flow persistence ----------------------- *)

let roundtrip flow =
  match Flow_io.to_string flow with
  | Error e -> Alcotest.fail e
  | Ok text ->
    (match Flow_io.of_string text with
     | Error e -> Alcotest.fail e
     | Ok reloaded -> (text, reloaded))

let flow_io_tests =
  [
    Alcotest.test_case "guard-band flow round-trips byte-stably" `Quick
      (fun () ->
        let flow = Lazy.force trained_flow in
        let text, reloaded = roundtrip flow in
        Alcotest.(check string) "serialize(load(s)) = s" text
          (match Flow_io.to_string reloaded with
           | Ok t -> t
           | Error e -> Alcotest.fail e));
    Alcotest.test_case "reloaded flow reproduces verdicts exactly" `Quick
      (fun () ->
        let flow = Lazy.force trained_flow in
        let _, reloaded = roundtrip flow in
        Array.iter
          (fun row ->
            Alcotest.check check_verdict "same verdict"
              (Compaction.flow_verdict flow row)
              (Compaction.flow_verdict reloaded row))
          (population 2 300));
    Alcotest.test_case "spec definitions survive the trip" `Quick (fun () ->
        let flow = Lazy.force trained_flow in
        let _, reloaded = roundtrip flow in
        Array.iter2
          (fun (a : Spec.t) (b : Spec.t) ->
            Alcotest.(check string) "name" a.Spec.name b.Spec.name;
            Alcotest.(check string) "unit" a.Spec.unit_label b.Spec.unit_label;
            Alcotest.(check (float 0.0)) "lower" a.Spec.range.Spec.lower
              b.Spec.range.Spec.lower;
            Alcotest.(check (float 0.0)) "upper" a.Spec.range.Spec.upper
              b.Spec.range.Spec.upper)
          flow.Compaction.specs reloaded.Compaction.specs);
    Alcotest.test_case "single-model band round-trips" `Quick (fun () ->
        let no_guard = { config with Compaction.guard_fraction = 0.0 } in
        let flow = Compaction.make_flow no_guard (data 3 300) ~dropped:[| 2 |] in
        let text, reloaded = roundtrip flow in
        Alcotest.(check bool) "single preserved" true
          (match reloaded.Compaction.band with
           | Some band -> Guard_band.is_single band
           | None -> false);
        Alcotest.(check string) "byte-stable" text
          (Result.get_ok (Flow_io.to_string reloaded)));
    Alcotest.test_case "identity flow (no band) round-trips" `Quick (fun () ->
        let flow = Compaction.identity_flow specs in
        let text, reloaded = roundtrip flow in
        Alcotest.(check bool) "no band" true (reloaded.Compaction.band = None);
        Alcotest.(check string) "byte-stable" text
          (Result.get_ok (Flow_io.to_string reloaded)));
    Alcotest.test_case "opaque bands are refused" `Quick (fun () ->
        let adaptive = Adaptive_guard.train (data 4 300) ~dropped:[| 2 |] in
        (match Flow_io.to_string (Adaptive_guard.flow adaptive) with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "expected an error for a closure band"));
    Alcotest.test_case "a guard fraction the reader refuses is not written"
      `Quick (fun () ->
        let flow = Lazy.force trained_flow in
        List.iter
          (fun g ->
            match
              Flow_io.to_string { flow with Compaction.guard_fraction = g }
            with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "guard_fraction %g was written" g)
          [ -0.01; 1.0; Float.nan ]);
    Alcotest.test_case "garbage and truncation rejected" `Quick (fun () ->
        (match Flow_io.of_string "not a flow\n" with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "expected a header error");
        let flow = Lazy.force trained_flow in
        let text, _ = roundtrip flow in
        let truncated = String.sub text 0 (String.length text / 2) in
        (match Flow_io.of_string truncated with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "expected a truncation error"));
    Alcotest.test_case "constant-band flow round-trips" `Quick (fun () ->
        let flow = Lazy.force trained_flow in
        let constant =
          {
            flow with
            Compaction.band =
              Some
                (Guard_band.of_models
                   ~tight:(Guard_band.constant (-1))
                   ~loose:(Guard_band.constant 1));
          }
        in
        let text, reloaded = roundtrip constant in
        Alcotest.(check string) "byte-stable" text
          (Result.get_ok (Flow_io.to_string reloaded));
        Alcotest.check check_verdict "constant disagreement guards"
          Guard_band.Guard
          (Compaction.flow_verdict reloaded [| 1.0; 1.0; 2.0; 0.0 |]));
  ]

(* ------------------------------ CSV ------------------------------- *)

let csv_tests =
  [
    Alcotest.test_case "device rows round-trip bit-identically" `Quick
      (fun () ->
        let rows = population 5 50 in
        let path = Filename.temp_file "stc_csv" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Device_csv.write ~path ~specs ~rows;
            match Device_csv.read ~path with
            | Error e -> Alcotest.fail e
            | Ok (names, rows') ->
              Alcotest.(check int) "columns" 4 (Array.length names);
              Alcotest.(check string) "header name" "slew rate" names.(1);
              Alcotest.(check int) "rows" 50 (Array.length rows');
              Array.iteri
                (fun i row ->
                  Array.iteri
                    (fun j v ->
                      Alcotest.(check (float 0.0)) "cell" v rows'.(i).(j))
                    row)
                rows));
    Alcotest.test_case "ragged CSV rejected" `Quick (fun () ->
        let path = Filename.temp_file "stc_csv" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out path in
            output_string oc "a,b\n1.0,2.0\n3.0\n";
            close_out oc;
            match Device_csv.read ~path with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "expected a column-count error"));
  ]

(* ---------------------------- engine ------------------------------ *)

let engine_tests =
  [
    Alcotest.test_case "verdicts independent of batch size and domains" `Quick
      (fun () ->
        let flow = Lazy.force trained_flow in
        let stream = population 6 500 in
        let expected = Array.map (Compaction.flow_verdict flow) stream in
        List.iter
          (fun (batch_size, domains) ->
            Floor.with_engine ~config:{ Floor.batch_size; domains } flow
              (fun engine ->
                let outcomes = Floor.process engine stream in
                Array.iteri
                  (fun i o ->
                    Alcotest.check check_verdict
                      (Printf.sprintf "row %d (batch %d, domains %d)" i
                         batch_size domains)
                      expected.(i) o.Floor.verdict)
                  outcomes))
          [ (1, 1); (7, 1); (64, 3); (500, 4); (512, 2) ]);
    Alcotest.test_case "guard parts queue as Retest without a callback" `Quick
      (fun () ->
        let flow = Lazy.force trained_flow in
        let stream = population 6 500 in
        Floor.with_engine flow (fun engine ->
            let outcomes = Floor.process engine stream in
            Array.iter
              (fun o ->
                match (o.Floor.verdict, o.Floor.bin) with
                | Guard_band.Guard, Tester.Retest -> ()
                | Guard_band.Guard, _ -> Alcotest.fail "guard not queued"
                | Guard_band.Good, Tester.Ship -> ()
                | Guard_band.Bad, Tester.Scrap -> ()
                | (Guard_band.Good | Guard_band.Bad), _ ->
                  Alcotest.fail "confident part misbinned")
              outcomes));
    Alcotest.test_case "retest callback matches the simulated tester" `Quick
      (fun () ->
        let flow = Lazy.force trained_flow in
        let test = data 6 500 in
        let full_test row = Array.for_all2 Spec.passes specs row in
        let _, expected = Tester.run ~resolve_guard:true flow test in
        Floor.with_engine ~config:{ Floor.batch_size = 64; domains = 2 } flow
          (fun engine ->
            let (_ : Floor.outcome array) =
              Floor.process ~retest:full_test engine (Device_data.values test)
            in
            let s = Floor.stats engine in
            Alcotest.(check int) "shipped" expected.Tester.shipped s.Floor.shipped;
            Alcotest.(check int) "scrapped" expected.Tester.scrapped
              s.Floor.scrapped;
            Alcotest.(check int) "retested" expected.Tester.retested
              s.Floor.retested));
    Alcotest.test_case "stats accumulate across process calls" `Quick (fun () ->
        let flow = Lazy.force trained_flow in
        let stream = population 7 130 in
        Floor.with_engine ~config:{ Floor.batch_size = 32; domains = 1 } flow
          (fun engine ->
            let (_ : Floor.outcome array) = Floor.process engine stream in
            let (_ : Floor.outcome array) = Floor.process engine stream in
            let s = Floor.stats engine in
            Alcotest.(check int) "devices" 260 s.Floor.devices;
            Alcotest.(check int) "batches" 10 s.Floor.batches;
            Alcotest.(check int) "bins partition" s.Floor.devices
              (s.Floor.shipped + s.Floor.scrapped + s.Floor.retested);
            Floor.reset_stats engine;
            Alcotest.(check int) "reset" 0 (Floor.stats engine).Floor.devices));
    Alcotest.test_case "row width validated" `Quick (fun () ->
        let flow = Lazy.force trained_flow in
        Floor.with_engine flow (fun engine ->
            match Floor.process engine [| [| 1.0; 2.0 |] |] with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "expected Invalid_argument"));
    Alcotest.test_case "served flow survives the disk round trip" `Quick
      (fun () ->
        let flow = Lazy.force trained_flow in
        let path = Filename.temp_file "stc_flow" ".stc" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            (match Flow_io.save ~path flow with
             | Ok () -> ()
             | Error e -> Alcotest.fail e);
            let reloaded =
              match Flow_io.load ~path with
              | Ok f -> f
              | Error e -> Alcotest.fail e
            in
            let stream = population 8 200 in
            Floor.with_engine reloaded (fun engine ->
                let outcomes = Floor.process engine stream in
                Array.iteri
                  (fun i o ->
                    Alcotest.check check_verdict "verdict"
                      (Compaction.flow_verdict flow stream.(i))
                      o.Floor.verdict)
                  outcomes)));
  ]

let suites =
  [
    ("floor.pool", pool_tests);
    ("floor.flow_io", flow_io_tests);
    ("floor.csv", csv_tests);
    ("floor.engine", engine_tests);
  ]
