(* Adversarial QA: the Stc_qa generators, differential oracles and
   fault-injection checks, both as qcheck properties (replayable via
   QCHECK_SEED, like the rest of the suite) and as deterministic
   alcotest cases pinning the hardened error paths.

   The two floor properties carry a [~long_factor]: under QCHECK_LONG=1
   (`make qa`) they bin 1,040 generated flows of 16 rows each, at every
   batch size in {1, 7, 64} and domain count in {1, 4}, half of them
   with a retest callback — the acceptance bar for serving-path
   changes. *)

module Spec = Stc.Spec
module Compaction = Stc.Compaction
module Flow_io = Stc_floor.Flow_io
module Device_csv = Stc_floor.Device_csv
module Floor = Stc_floor.Floor
module Pool = Stc_process.Pool
module Rng = Stc_numerics.Rng
module Gen = Stc_qa.Gen
module Oracle = Stc_qa.Oracle
module Faults = Stc_qa.Faults

let qtest = QCheck_alcotest.to_alcotest
let check = function Ok () -> () | Error e -> Alcotest.fail e
let prop = function Ok () -> true | Error e -> QCheck.Test.fail_report e

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------ qcheck properties ----------------------- *)

let batch_sizes = [ 1; 7; 64 ]
let domain_counts = [ 1; 4 ]
let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f ()

let property_tests =
  [
    qtest
      (QCheck.Test.make ~name:"floor matches the reference binner" ~count:40
         ~long_factor:13
         (Gen.arb_flow_with_rows ~rows_per_flow:16)
         (fun (flow, rows) ->
           prop (Oracle.floor_matches ~batch_sizes ~domain_counts flow rows)));
    qtest
      (QCheck.Test.make ~name:"floor matches reference under retest" ~count:40
         ~long_factor:13
         (Gen.arb_flow_with_rows ~rows_per_flow:16)
         (fun (flow, rows) ->
           let retest row =
             Array.for_all2 Spec.passes flow.Compaction.specs row
           in
           prop
             (Oracle.floor_matches ~retest ~batch_sizes ~domain_counts flow
                rows)));
    qtest
      (QCheck.Test.make ~name:"flow print/parse/print is canonical" ~count:200
         Gen.arb_flow
         (fun flow -> prop (Oracle.flow_roundtrips flow)));
    qtest
      (QCheck.Test.make ~name:"verdicts survive the disk round trip" ~count:100
         (Gen.arb_flow_with_rows ~rows_per_flow:6)
         (fun (flow, rows) -> prop (Oracle.flow_verdicts_survive flow rows)));
    qtest
      (QCheck.Test.make ~name:"svm decisions match brute force" ~count:200
         (QCheck.make (fun st ->
              let dim = 1 + Random.State.int st 5 in
              let probe =
                Array.init dim (fun _ ->
                    -1.5 +. (4.0 *. Random.State.float st 1.0))
              in
              (Gen.svr ~dim st, Gen.svc ~dim st, probe)))
         (fun (svr, svc, probe) ->
           prop
             (let* () = Oracle.svr_agrees svr probe in
              let* () = Oracle.svc_agrees svc probe in
              let* () = Oracle.svr_roundtrips svr in
              Oracle.svc_roundtrips svc)));
    qtest
      (QCheck.Test.make ~name:"trained svm duals feasible, decisions agree"
         ~count:20
         (QCheck.make (fun st ->
              let dim = 1 + Random.State.int st 3 in
              let probe =
                Array.init dim (fun _ ->
                    -0.5 +. (2.0 *. Random.State.float st 1.0))
              in
              (Gen.trained_svc ~dim ~n:40 st, Gen.trained_svr ~dim ~n:40 st,
               probe)))
         (fun ((c_svc, svc), (c_svr, svr), probe) ->
           prop
             (let* () = Oracle.svc_dual_feasible ~c:c_svc svc in
              let* () = Oracle.svr_dual_feasible ~c:c_svr svr in
              let* () = Oracle.svc_agrees svc probe in
              Oracle.svr_agrees svr probe)));
    qtest
      (QCheck.Test.make ~name:"flat kernel rows match boxed eval bitwise"
         ~count:100
         (QCheck.make
            QCheck.Gen.(
              let* dim = int_range 1 6 in
              let* n = int_range 2 25 in
              let* rows =
                array_size (return n)
                  (array_size (return dim) (float_range (-3.0) 3.0))
              in
              let* gamma = float_range 0.05 2.0 in
              let* coef0 = float_range (-1.0) 1.0 in
              let* degree = int_range 2 4 in
              return
                ( Stc_svm.Kernel.
                    [
                      linear;
                      rbf gamma;
                      Polynomial { gamma; coef0; degree };
                      Sigmoid { gamma; coef0 };
                    ],
                  rows )))
         (fun (kernels, rows) -> prop (Oracle.flat_kernel_agrees kernels rows)));
    qtest
      (QCheck.Test.make ~name:"device CSV round trips bit-identically"
         ~count:50
         (QCheck.make
            QCheck.Gen.(
              let* specs = Gen.specs () in
              let* n = int_range 1 20 in
              let* rows = Gen.rows specs ~n in
              return (specs, rows)))
         (fun (specs, rows) -> prop (Oracle.csv_roundtrips ~specs ~rows)));
  ]

(* ----------------------- flow_io error paths ---------------------- *)

(* A minimal hand-written flow so each test controls the exact bytes. *)
let base_flow_text =
  "stc-flow-1\n" ^ "guard_fraction 0\n" ^ "measured_guard 0\n" ^ "specs 1\n"
  ^ "spec gain V 1 0 2\n" ^ "kept 1 0\n" ^ "dropped 0\n" ^ "band none\n"

let replace_line i repl text =
  String.split_on_char '\n' text
  |> List.mapi (fun j line -> if j = i then repl else line)
  |> String.concat "\n"

let expect_error_containing what needle = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error e ->
    if not (contains e needle) then
      Alcotest.failf "%s: error %S does not mention %S" what e needle

let flow_io_error_tests =
  [
    Alcotest.test_case "the minimal flow parses" `Quick (fun () ->
        match Flow_io.of_string base_flow_text with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "unknown version is named" `Quick (fun () ->
        expect_error_containing "version skew" "unsupported flow version"
          (Flow_io.of_string (replace_line 0 "stc-flow-9" base_flow_text)));
    Alcotest.test_case "non-flow header is still distinct" `Quick (fun () ->
        expect_error_containing "bad header" "expected"
          (Flow_io.of_string (replace_line 0 "not-a-flow" base_flow_text)));
    Alcotest.test_case "truncation names the line" `Quick (fun () ->
        let cut =
          String.concat "\n"
            [ "stc-flow-1"; "guard_fraction 0"; "measured_guard 0"; "" ]
        in
        expect_error_containing "truncation" "truncated"
          (Flow_io.of_string cut);
        expect_error_containing "truncation line number" "line 4"
          (Flow_io.of_string cut));
    Alcotest.test_case "non-finite guard fraction rejected" `Quick (fun () ->
        expect_error_containing "nan fraction" "non-finite"
          (Flow_io.of_string
             (replace_line 1 "guard_fraction nan" base_flow_text)));
    Alcotest.test_case "guard fraction range checked" `Quick (fun () ->
        expect_error_containing "fraction 1.5" "out of range"
          (Flow_io.of_string
             (replace_line 1 "guard_fraction 1.5" base_flow_text)));
    Alcotest.test_case "kept/dropped must partition" `Quick (fun () ->
        expect_error_containing "double-listed index" "partition"
          (Flow_io.of_string (replace_line 6 "dropped 1 0" base_flow_text)));
    Alcotest.test_case "non-finite spec bound rejected" `Quick (fun () ->
        expect_error_containing "inf bound" "non-finite"
          (Flow_io.of_string
             (replace_line 4 "spec gain V 1 0 inf" base_flow_text)));
    Alcotest.test_case "load reports a missing file" `Quick (fun () ->
        match Flow_io.load ~path:"/nonexistent/flow.stc" with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error _ -> ());
  ]

(* --------------------- device CSV error paths --------------------- *)

let with_temp_text text f =
  let path = Filename.temp_file "stc_qa_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      f path)

let device_csv_tests =
  [
    Alcotest.test_case "NaN cell names line and column" `Quick (fun () ->
        with_temp_text "a,b\n1,2\n3,nan\n" (fun path ->
            expect_error_containing "nan cell" "line 3"
              (Device_csv.read ~path);
            expect_error_containing "nan cell" "non-finite"
              (Device_csv.read ~path)));
    Alcotest.test_case "inf cell rejected" `Quick (fun () ->
        with_temp_text "a\ninf\n" (fun path ->
            expect_error_containing "inf cell" "non-finite"
              (Device_csv.read ~path)));
    Alcotest.test_case "ragged row names the line" `Quick (fun () ->
        with_temp_text "a,b\n1,2,3\n" (fun path ->
            expect_error_containing "ragged" "line 2" (Device_csv.read ~path)));
    Alcotest.test_case "non-numeric cell names the cell" `Quick (fun () ->
        with_temp_text "a,b\n1,oops\n" (fun path ->
            expect_error_containing "text cell" "oops" (Device_csv.read ~path)));
    Alcotest.test_case "write refuses non-finite values" `Quick (fun () ->
        let specs = [| Spec.make ~name:"a" ~unit_label:"V" ~nominal:1.0 ~lower:0.0 ~upper:2.0 |] in
        let path = Filename.temp_file "stc_qa_test" ".csv" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            match Device_csv.write ~path ~specs ~rows:[| [| Float.nan |] |] with
            | () -> Alcotest.fail "expected Invalid_argument"
            | exception Invalid_argument msg ->
              if not (contains msg "non-finite") then
                Alcotest.failf "unexpected message %S" msg));
  ]

(* ------------------------- floor strict mode ----------------------- *)

let floor_strict_tests =
  [
    Alcotest.test_case "strict rejects non-finite kept cells" `Quick (fun () ->
        let flow = Gen.run ~seed:5 Gen.flow in
        let k = Array.length flow.Compaction.specs in
        if Array.length flow.Compaction.kept = 0 then () (* nothing read *)
        else
          Floor.with_engine flow (fun engine ->
              let bad = Array.make k Float.nan in
              (match Floor.process ~strict:true engine [| bad |] with
               | _ -> Alcotest.fail "expected Invalid_argument"
               | exception Invalid_argument msg ->
                 if not (contains msg "non-finite") then
                   Alcotest.failf "unexpected message %S" msg);
              (* the rejected batch must not move the counters *)
              Alcotest.(check int) "no devices counted" 0
                (Floor.stats engine).Floor.devices;
              (* default mode degrades deterministically instead *)
              let o = Floor.process engine [| bad |] in
              Alcotest.(check bool) "nan scraps" true
                (o.(0).Floor.bin = Stc.Tester.Scrap)));
  ]

(* ------------------------- fault injection ------------------------ *)

let fault_tests =
  let flow_at seed = Gen.run ~seed Gen.flow in
  [
    Alcotest.test_case "corrupted flows reject or reparse" `Quick (fun () ->
        let rng = Rng.create 42 in
        for seed = 1 to 10 do
          match Faults.check_flow_corruption rng ~trials:40 (flow_at seed) with
          | Ok (_rejected, _accepted) -> ()
          | Error e -> Alcotest.fail e
        done);
    Alcotest.test_case "version skew and truncation are typed" `Quick (fun () ->
        check (Faults.check_version_skew (flow_at 3)));
    Alcotest.test_case "CSV rejects injected bad rows" `Quick (fun () ->
        let rng = Rng.create 7 in
        for seed = 1 to 5 do
          let flow, rows =
            Gen.run ~seed (Gen.flow_with_rows ~rows_per_flow:8)
          in
          check
            (Faults.check_csv_rejects_bad_rows rng ~trials:20
               ~specs:flow.Compaction.specs ~rows)
        done);
    Alcotest.test_case "floor survives injected bad rows" `Quick (fun () ->
        let rng = Rng.create 11 in
        for seed = 1 to 5 do
          check (Faults.check_floor_bad_rows rng ~trials:15 (flow_at seed))
        done);
  ]

(* ----------------------------- pool ------------------------------- *)

let pool_tests =
  [
    Alcotest.test_case "worker exception is contained" `Quick (fun () ->
        check (Faults.check_pool_worker_failure ~domains:1);
        check (Faults.check_pool_worker_failure ~domains:4));
    Alcotest.test_case "stalled worker loses no tasks" `Quick (fun () ->
        check (Faults.check_pool_worker_delay ~domains:1 ~delay_s:0.01);
        check (Faults.check_pool_worker_delay ~domains:4 ~delay_s:0.01));
    Alcotest.test_case "zero tasks and shutdown misuse" `Quick (fun () ->
        check (Faults.check_pool_misuse ()));
    Alcotest.test_case "one pool serves two job shapes" `Quick (fun () ->
        Pool.with_pool ~domains:3 (fun pool ->
            let squares = Array.make 64 0 in
            Pool.run pool ~n:64 (fun i -> squares.(i) <- i * i);
            Alcotest.(check int) "square job" 85344
              (Array.fold_left ( + ) 0 squares);
            let hits = Array.make 17 0 in
            Pool.run pool ~n:17 (fun i -> hits.(i) <- hits.(i) + 1);
            Alcotest.(check (array int)) "each task once" (Array.make 17 1)
              hits));
  ]

let suites =
  [
    ("qa.properties", property_tests);
    ("qa.flow_io_errors", flow_io_error_tests);
    ("qa.device_csv_errors", device_csv_tests);
    ("qa.floor_strict", floor_strict_tests);
    ("qa.faults", fault_tests);
    ("qa.pool", pool_tests);
  ]
