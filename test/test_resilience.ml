(* Tests for the resilience layer: the stc-journal-1 write-ahead format,
   kill/resume bit-identical compaction, the retry policy, degraded-mode
   serving, and supervised pool deadlines. *)

module Spec = Stc.Spec
module Device_data = Stc.Device_data
module Compaction = Stc.Compaction
module Guard_band = Stc.Guard_band
module Journal = Stc.Journal
module Order = Stc.Order
module Pool = Stc_process.Pool
module Flow_io = Stc_floor.Flow_io
module Floor = Stc_floor.Floor
module Retry = Stc_floor.Retry
module Faults = Stc_qa.Faults
module Gen = Stc_qa.Gen
module Rng = Stc_numerics.Rng

let check_fault = Alcotest.(check (result unit string)) "fault check" (Ok ())

(* naive substring search; enough for asserting error-message content *)
let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let with_temp f =
  let path = Filename.temp_file "stc_test" ".stcj" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* a small correlated population: the greedy loop accepts some
   candidates and rejects others, so journals carry both decisions *)
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
    Compaction.tolerance = 0.05;
    guard_fraction = 0.02;
  }

let flow_bytes flow =
  match Flow_io.to_string flow with
  | Ok text -> text
  | Error e -> Alcotest.failf "flow does not serialise: %s" e

(* ---------------------------- journal format ---------------------- *)

let format_tests =
  [
    Alcotest.test_case "canonical text is exact" `Quick (fun () ->
        let replay =
          {
            Journal.fingerprint = "0123456789abcdef";
            entries =
              [| { Journal.spec_index = 4; accepted = true; error = 0.125 } |];
            complete = true;
          }
        in
        Alcotest.(check string)
          "exact bytes"
          "stc-journal-1\nfingerprint 0123456789abcdef\nstep 0 4 1 0.125\n\
           done 1\n"
          (Journal.to_string replay));
    Alcotest.test_case "truncation and mutation contract" `Quick (fun () ->
        check_fault (Faults.check_journal_truncation ()));
    Alcotest.test_case "bad fingerprint rejected with line" `Quick (fun () ->
        match Journal.of_string "stc-journal-1\nfingerprint 012345\n" with
        | Ok _ -> Alcotest.fail "short fingerprint accepted"
        | Error e ->
          Alcotest.(check bool) "names line 2" true (contains ~affix:"line 2" e));
    Alcotest.test_case "writer refuses appends after finish" `Quick (fun () ->
        with_temp (fun path ->
            let w =
              match Journal.create ~path ~fingerprint:"0123456789abcdef" with
              | Ok w -> w
              | Error e -> Alcotest.failf "create: %s" e
            in
            let entry =
              { Journal.spec_index = 0; accepted = false; error = 0.5 }
            in
            Alcotest.(check (result unit string)) "append" (Ok ())
              (Journal.append w entry);
            Alcotest.(check (result unit string)) "finish" (Ok ())
              (Journal.finish w);
            (match Journal.append w entry with
             | Ok () -> Alcotest.fail "append after finish succeeded"
             | Error _ -> ());
            Journal.close w;
            match Journal.load ~path with
            | Ok r ->
              Alcotest.(check bool) "complete" true r.Journal.complete;
              Alcotest.(check int) "one entry" 1 (Array.length r.Journal.entries)
            | Error e -> Alcotest.failf "load: %s" e));
    Alcotest.test_case "open_append rejects foreign and complete" `Quick
      (fun () ->
        with_temp (fun path ->
            let w =
              match Journal.create ~path ~fingerprint:"0123456789abcdef" with
              | Ok w -> w
              | Error e -> Alcotest.failf "create: %s" e
            in
            Journal.close w;
            (match Journal.open_append ~path ~fingerprint:"fedcba9876543210" with
             | Ok _ -> Alcotest.fail "foreign fingerprint accepted"
             | Error e ->
               Alcotest.(check bool) "names the mismatch" true
                 (contains ~affix:"fingerprint" e));
            match Journal.open_append ~path ~fingerprint:"0123456789abcdef" with
            | Ok w2 ->
              Alcotest.(check (result unit string)) "finish empty" (Ok ())
                (Journal.finish w2);
              Journal.close w2;
              (match
                 Journal.open_append ~path ~fingerprint:"0123456789abcdef"
               with
               | Ok _ -> Alcotest.fail "complete journal reopened"
               | Error _ -> ())
            | Error e -> Alcotest.failf "open_append: %s" e));
    Alcotest.test_case "recover salvages a final record cut mid-write" `Quick
      (fun () ->
        with_temp (fun path ->
            let fingerprint = "0123456789abcdef" in
            (match Journal.create ~path ~fingerprint with
             | Error e -> Alcotest.failf "create: %s" e
             | Ok w ->
               for i = 0 to 1 do
                 match
                   Journal.append w
                     { Journal.spec_index = i; accepted = true; error = 0.25 }
                 with
                 | Ok () -> ()
                 | Error e -> Alcotest.failf "append: %s" e
               done;
               Journal.close w);
            let intact = read_file path in
            (* a kill inside write(2): the final record has no newline *)
            let oc =
              open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
            in
            output_string oc "step 2 5 1 0.";
            close_out oc;
            (match Journal.load ~path with
             | Ok _ -> Alcotest.fail "strict load accepted a partial record"
             | Error e ->
               Alcotest.(check bool) "strict error has a line" true
                 (contains ~affix:"line" e));
            (match Journal.recover ~path with
             | Error e -> Alcotest.failf "recover: %s" e
             | Ok (r, dropped) ->
               Alcotest.(check int) "intact entries survive" 2
                 (Array.length r.Journal.entries);
               Alcotest.(check bool) "incomplete" false r.Journal.complete;
               Alcotest.(check bool) "partial bytes dropped" true (dropped > 0));
            Alcotest.(check string) "file truncated to the intact prefix"
              intact (read_file path);
            match Journal.open_append ~path ~fingerprint with
            | Error e -> Alcotest.failf "open_append after recover: %s" e
            | Ok w ->
              Alcotest.(check int) "continues at the boundary" 2
                (Journal.entries_written w);
              Journal.close w));
    Alcotest.test_case "recover rejects mid-file corruption" `Quick (fun () ->
        with_temp (fun path ->
            let text =
              "stc-journal-1\nfingerprint 0123456789abcdef\n\
               step 9 0 1 0.25\nstep 1 1 1 0.25\n"
            in
            let oc = open_out_bin path in
            output_string oc text;
            close_out oc;
            match Journal.recover ~path with
            | Ok _ -> Alcotest.fail "recover accepted mid-file corruption"
            | Error e ->
              Alcotest.(check bool) "carries a line number" true
                (contains ~affix:"line" e)));
  ]

(* qcheck: any generated journal prints canonically; any corruption of
   it is rejected with a typed error or re-accepted canonically *)
let arb_journal = QCheck.make ~print:Journal.to_string Gen.journal

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:200 ~name:"journal print/parse canonical"
        arb_journal (fun r ->
          let text = Journal.to_string r in
          match Journal.of_string text with
          | Error e -> QCheck.Test.fail_reportf "does not reparse: %s" e
          | Ok r' -> Journal.to_string r' = text);
      QCheck.Test.make ~count:50 ~name:"journal corruption never escapes"
        arb_journal (fun r ->
          let rng = Rng.create 77 in
          match Faults.check_journal_corruption rng ~trials:20 r with
          | Ok (_rejected, _accepted) -> true
          | Error e -> QCheck.Test.fail_reportf "%s" e);
    ]

(* ----------------------- kill/resume compaction ------------------- *)

let greedy_journalled path cfg ~train ~test ~replay =
  let order = Order.compute Order.By_failure_count train in
  let fingerprint = Compaction.journal_fingerprint cfg ~train ~test ~order in
  let w =
    if replay = [||] then Journal.create ~path ~fingerprint
    else Journal.open_append ~path ~fingerprint
  in
  match w with
  | Error e -> Alcotest.failf "journal writer: %s" e
  | Ok w ->
    Fun.protect
      ~finally:(fun () -> Journal.close w)
      (fun () ->
        Compaction.greedy_resumable ~journal:w ~replay cfg ~train ~test)

let resume_tests =
  [
    Alcotest.test_case "kill after every step resumes bit-identical" `Slow
      (fun () ->
        let train = data 11 160 and test = data 12 90 in
        let reference = Compaction.greedy config ~train ~test in
        let ref_bytes = flow_bytes reference.Compaction.flow in
        let full_journal, entries =
          with_temp (fun path ->
              let r = greedy_journalled path config ~train ~test ~replay:[||] in
              Alcotest.(check string) "journalled run = plain run" ref_bytes
                (flow_bytes r.Compaction.flow);
              match Journal.load ~path with
              | Error e -> Alcotest.failf "load full journal: %s" e
              | Ok loaded ->
                Alcotest.(check bool) "complete" true loaded.Journal.complete;
                Alcotest.(check int) "one entry per examined spec"
                  (List.length r.Compaction.steps)
                  (Array.length loaded.Journal.entries);
                (read_file path, loaded.Journal.entries))
        in
        let order = Order.compute Order.By_failure_count train in
        let fingerprint =
          Compaction.journal_fingerprint config ~train ~test ~order
        in
        (* kill the run after L journaled steps, for every L *)
        for cut = 0 to Array.length entries do
          with_temp (fun path ->
              (* rebuild the crash artefact: header + first [cut] records,
                 no done trailer (the writer died before finish) *)
              (match Journal.create ~path ~fingerprint with
               | Error e -> Alcotest.failf "create: %s" e
               | Ok w ->
                 for i = 0 to cut - 1 do
                   match Journal.append w entries.(i) with
                   | Ok () -> ()
                   | Error e -> Alcotest.failf "append: %s" e
                 done;
                 Journal.close w);
              let replay = Array.sub entries 0 cut in
              let resumed =
                greedy_journalled path config ~train ~test ~replay
              in
              Alcotest.(check string)
                (Printf.sprintf "flow after kill at step %d" cut)
                ref_bytes
                (flow_bytes resumed.Compaction.flow);
              Alcotest.(check string)
                (Printf.sprintf "journal after kill at step %d" cut)
                full_journal (read_file path))
        done);
    Alcotest.test_case "fingerprint binds config, data and order" `Quick
      (fun () ->
        let train = data 21 60 and test = data 22 40 in
        let order = Order.compute Order.By_failure_count train in
        let fp = Compaction.journal_fingerprint config ~train ~test ~order in
        let fp_tol =
          Compaction.journal_fingerprint
            { config with Compaction.tolerance = 0.06 }
            ~train ~test ~order
        in
        let fp_data =
          Compaction.journal_fingerprint config ~train:(data 23 60) ~test
            ~order
        in
        let fp_order =
          Compaction.journal_fingerprint config ~train ~test
            ~order:(Array.of_list (List.rev (Array.to_list order)))
        in
        Alcotest.(check bool) "tolerance changes fp" true (fp <> fp_tol);
        Alcotest.(check bool) "train data changes fp" true (fp <> fp_data);
        Alcotest.(check bool) "order changes fp" true (fp <> fp_order);
        Alcotest.(check string) "fingerprint is stable" fp
          (Compaction.journal_fingerprint config ~train ~test ~order));
    Alcotest.test_case "replay refuses a foreign step" `Quick (fun () ->
        let train = data 31 60 and test = data 32 40 in
        let order = Order.compute Order.By_failure_count train in
        let bogus =
          [|
            {
              Journal.spec_index = (order.(0) + 1) mod Array.length specs;
              accepted = true;
              error = 0.0;
            };
          |]
        in
        Alcotest.check_raises "order mismatch"
          (Invalid_argument
             (Printf.sprintf
                "Compaction.greedy_resumable: journal step 0 examined spec %d \
                 but this run examines spec %d (order or data mismatch)"
                bogus.(0).Journal.spec_index order.(0)))
          (fun () ->
            ignore
              (Compaction.greedy_resumable ~replay:bogus config ~train ~test)));
  ]

(* qcheck: save→resume round-trips greedy results on random populations *)
let arb_population =
  let open QCheck.Gen in
  let gen =
    Gen.specs ~min_specs:2 ~max_specs:3 () >>= fun sp ->
    Gen.rows sp ~n:30 >>= fun train_rows ->
    Gen.rows sp ~n:20 >>= fun test_rows ->
    return (sp, train_rows, test_rows)
  in
  QCheck.make
    ~print:(fun (sp, _, _) ->
      String.concat ", "
        (Array.to_list (Array.map (fun s -> s.Spec.name) sp)))
    gen

let qcheck_resume_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:8 ~name:"random populations resume bit-identical"
        arb_population (fun (sp, train_rows, test_rows) ->
          let train = Device_data.make ~specs:sp ~values:train_rows in
          let test = Device_data.make ~specs:sp ~values:test_rows in
          with_temp (fun path ->
              let full =
                greedy_journalled path config ~train ~test ~replay:[||]
              in
              let entries =
                match Journal.load ~path with
                | Ok r -> r.Journal.entries
                | Error e -> QCheck.Test.fail_reportf "load: %s" e
              in
              let cut = Array.length entries / 2 in
              with_temp (fun path2 ->
                  let order = Order.compute Order.By_failure_count train in
                  let fingerprint =
                    Compaction.journal_fingerprint config ~train ~test ~order
                  in
                  (match Journal.create ~path:path2 ~fingerprint with
                   | Error e -> QCheck.Test.fail_reportf "create: %s" e
                   | Ok w ->
                     Array.iteri
                       (fun i e ->
                         if i < cut then
                           match Journal.append w e with
                           | Ok () -> ()
                           | Error err ->
                             QCheck.Test.fail_reportf "append: %s" err)
                       entries;
                     Journal.close w);
                  let resumed =
                    greedy_journalled path2 config ~train ~test
                      ~replay:(Array.sub entries 0 cut)
                  in
                  flow_bytes resumed.Compaction.flow
                  = flow_bytes full.Compaction.flow)));
    ]

(* ------------------------------- retry ---------------------------- *)

exception Transient_glitch
exception Broken

let retry_tests =
  [
    Alcotest.test_case "backoff is deterministic, jittered, capped" `Quick
      (fun () ->
        let p =
          {
            Retry.default_policy with
            Retry.base_delay_s = 0.01;
            max_delay_s = 0.04;
            jitter = 0.5;
          }
        in
        for retry = 1 to 6 do
          let d = Retry.delay_s p ~retry in
          let nominal =
            Stdlib.min p.Retry.max_delay_s
              (p.Retry.base_delay_s *. (2.0 ** float_of_int (retry - 1)))
          in
          Alcotest.(check bool)
            (Printf.sprintf "retry %d in [half, full] of %g" retry nominal)
            true
            (d <= nominal && d >= 0.5 *. nominal);
          Alcotest.(check (float 0.0))
            (Printf.sprintf "retry %d deterministic" retry)
            d (Retry.delay_s p ~retry)
        done;
        Alcotest.(check bool) "capped" true
          (Retry.delay_s p ~retry:10 <= p.Retry.max_delay_s));
    Alcotest.test_case "flaky call succeeds after retries" `Quick (fun () ->
        let slept = ref [] in
        let sleep d = slept := d :: !slept in
        let calls = ref 0 in
        let p = { Retry.default_policy with Retry.attempts = 5 } in
        let result, retries =
          Retry.run ~sleep p (fun () ->
              incr calls;
              if !calls <= 2 then raise Transient_glitch;
              !calls)
        in
        Alcotest.(check (result int string)) "value" (Ok 3)
          (Result.map_error Printexc.to_string result);
        Alcotest.(check int) "retries" 2 retries;
        Alcotest.(check (list (float 0.0))) "slept the schedule"
          [ Retry.delay_s p ~retry:2; Retry.delay_s p ~retry:1 ]
          !slept);
    Alcotest.test_case "exhaustion returns the last error" `Quick (fun () ->
        let calls = ref 0 in
        let p = { Retry.default_policy with Retry.attempts = 3 } in
        let result, retries =
          Retry.run ~sleep:ignore p (fun () ->
              incr calls;
              raise Transient_glitch)
        in
        Alcotest.(check int) "three attempts" 3 !calls;
        Alcotest.(check int) "two retries" 2 retries;
        (match result with
         | Error Transient_glitch -> ()
         | _ -> Alcotest.fail "expected the injected exception"));
    Alcotest.test_case "permanent failures stop immediately" `Quick (fun () ->
        let calls = ref 0 in
        let p =
          {
            Retry.default_policy with
            Retry.attempts = 5;
            classify =
              (function Broken -> Retry.Permanent | _ -> Retry.Transient);
          }
        in
        let result, retries =
          Retry.run ~sleep:ignore p (fun () ->
              incr calls;
              raise Broken)
        in
        Alcotest.(check int) "one attempt" 1 !calls;
        Alcotest.(check int) "no retries" 0 retries;
        (match result with
         | Error Broken -> ()
         | _ -> Alcotest.fail "expected Broken"));
    Alcotest.test_case "fatal runtime exceptions are never retried" `Quick
      (fun () ->
        let calls = ref 0 in
        let p = { Retry.default_policy with Retry.attempts = 5 } in
        (match
           Retry.run ~sleep:ignore p (fun () ->
               incr calls;
               assert false)
         with
        | exception Assert_failure _ -> ()
        | _ -> Alcotest.fail "Assert_failure did not propagate");
        Alcotest.(check int) "single attempt" 1 !calls);
    Alcotest.test_case "attempts < 1 rejected" `Quick (fun () ->
        Alcotest.check_raises "invalid"
          (Invalid_argument "Retry.run: attempts must be >= 1")
          (fun () ->
            ignore
              (Retry.run ~sleep:ignore
                 { Retry.default_policy with Retry.attempts = 0 }
                 (fun () -> ()))));
    Alcotest.test_case "schedule is a pure function of the seed" `Quick
      (fun () ->
        (* two engines with the same policy must sleep the exact same
           schedule; a different seed must jitter differently somewhere *)
        let schedule seed =
          let slept = ref [] in
          let p =
            {
              Retry.default_policy with
              Retry.attempts = 6;
              base_delay_s = 0.01;
              max_delay_s = 10.0;
              jitter = 0.9;
              seed;
            }
          in
          let (_ : (unit, exn) result * int) =
            Retry.run
              ~sleep:(fun d -> slept := d :: !slept)
              p
              (fun () -> raise Transient_glitch)
          in
          List.rev !slept
        in
        Alcotest.(check (list (float 0.0))) "same seed, same schedule"
          (schedule 17) (schedule 17);
        Alcotest.(check int) "five sleeps for six attempts" 5
          (List.length (schedule 17));
        Alcotest.(check bool) "different seeds jitter apart" true
          (schedule 17 <> schedule 18);
        (* and delay_s itself is pure: repeated queries never advance
           hidden state *)
        let p = { Retry.default_policy with Retry.seed = 17; jitter = 0.9 } in
        let first = List.init 5 (fun i -> Retry.delay_s p ~retry:(i + 1)) in
        let second = List.init 5 (fun i -> Retry.delay_s p ~retry:(i + 1)) in
        Alcotest.(check (list (float 0.0))) "delay_s is pure" first second);
  ]

(* -------------------------- floor resilience ---------------------- *)

let trained_flow = lazy (Compaction.make_flow config (data 41 300) ~dropped:[| 2 |])

let floor_tests =
  [
    Alcotest.test_case "flaky retest ships after retries" `Quick (fun () ->
        List.iter
          (fun fail_first ->
            check_fault (Faults.check_floor_flaky_retest ~fail_first))
          [ 1; 2; 3 ]);
    Alcotest.test_case "permanent failure degrades, drops nothing" `Quick
      (fun () ->
        check_fault (Faults.check_floor_degraded ~classify_permanent:false);
        check_fault (Faults.check_floor_degraded ~classify_permanent:true));
    Alcotest.test_case "batch deadline sheds, does not latch" `Quick (fun () ->
        check_fault (Faults.check_floor_batch_deadline ()));
    Alcotest.test_case "fatal retest bug surfaces, does not degrade" `Quick
      (fun () ->
        (* every in-range device escalates: the tight model votes fail,
           the loose one votes pass *)
        let spec name =
          Spec.make ~name ~unit_label:"" ~nominal:0.5 ~lower:0.0 ~upper:1.0
        in
        let guard_flow =
          {
            Compaction.specs = [| spec "kept"; spec "dropped" |];
            kept = [| 0 |];
            dropped = [| 1 |];
            band =
              Some
                (Guard_band.of_models
                   ~tight:(Guard_band.constant (-1))
                   ~loose:(Guard_band.constant 1));
            guard_fraction = 0.01;
            measured_guard = false;
          }
        in
        Floor.with_engine guard_flow (fun engine ->
            let retest _row : bool = assert false in
            (match
               Floor.process ~retest ~retry:Retry.default_policy engine
                 [| [| 0.5; 0.5 |] |]
             with
            | exception Assert_failure _ -> ()
            | _ -> Alcotest.fail "a retest bug was swallowed by the policy");
            Alcotest.(check bool) "a bug must not latch degraded mode" false
              (Floor.degraded engine)));
    Alcotest.test_case "strict rejection leaves stats untouched" `Quick
      (fun () ->
        let flow = Lazy.force trained_flow in
        Floor.with_engine flow (fun engine ->
            let good = population 42 12 in
            let (_ : Floor.outcome array) = Floor.process engine good in
            let before = Floor.stats engine in
            Alcotest.(check int) "devices counted" 12 before.Floor.devices;
            Alcotest.(check int) "one batch" 1 before.Floor.batches;
            let bad = population 42 12 in
            bad.(7).(0) <- Float.nan;
            (match Floor.process ~strict:true engine bad with
             | exception Invalid_argument _ -> ()
             | _ -> Alcotest.fail "strict accepted a NaN row");
            Alcotest.(check bool) "stats unchanged by the rejected call" true
              (Floor.stats engine = before);
            Alcotest.(check bool) "not degraded" false (Floor.degraded engine);
            Floor.reset_stats engine;
            Alcotest.(check bool) "reset to empty" true
              (Floor.stats engine = Floor.empty_stats);
            Alcotest.(check bool) "reset clears degraded" false
              (Floor.degraded engine)));
    Alcotest.test_case "process validates batch_deadline_s" `Quick (fun () ->
        let flow = Lazy.force trained_flow in
        Floor.with_engine flow (fun engine ->
            Alcotest.check_raises "non-positive deadline"
              (Invalid_argument "Floor.process: batch_deadline_s must be positive")
              (fun () ->
                ignore
                  (Floor.process ~batch_deadline_s:0.0 engine
                     (population 43 2)))));
  ]

(* --------------------------- pool deadlines ----------------------- *)

let pool_tests =
  [
    Alcotest.test_case "deadline contract, 1 domain" `Slow (fun () ->
        check_fault (Faults.check_pool_deadline ~domains:1));
    Alcotest.test_case "deadline contract, 4 domains" `Slow (fun () ->
        check_fault (Faults.check_pool_deadline ~domains:4));
    Alcotest.test_case "in-time supervised run raises task errors" `Quick
      (fun () ->
        Pool.with_pool ~domains:2 (fun pool ->
            (match
               Pool.run ~deadline_s:30.0 pool ~n:16 (fun i ->
                   if i = 5 then failwith "task boom")
             with
             | exception Failure m ->
               Alcotest.(check string) "the task's error" "task boom" m
             | () -> Alcotest.fail "task error swallowed");
            (* and the error slot is clean afterwards *)
            Pool.run ~deadline_s:30.0 pool ~n:8 ignore));
    Alcotest.test_case "deadline_s must be positive" `Quick (fun () ->
        Pool.with_pool ~domains:1 (fun pool ->
            Alcotest.check_raises "invalid"
              (Invalid_argument "Pool.run: deadline_s must be positive")
              (fun () -> Pool.run ~deadline_s:0.0 pool ~n:1 ignore)));
    Alcotest.test_case "heartbeats are fresh after a run" `Quick (fun () ->
        Pool.with_pool ~domains:3 (fun pool ->
            Pool.run pool ~n:64 ignore;
            let ages = Pool.heartbeat_ages pool in
            Alcotest.(check int) "one per helper" 2 (Array.length ages);
            Array.iter
              (fun age ->
                Alcotest.(check bool) "recent" true (age >= 0.0 && age < 10.0))
              ages));
    Alcotest.test_case "timeout with parked helpers does not brick the pool"
      `Slow (fun () ->
        (* regression: with fewer tasks than domains, some helpers are
           still parked (or mid-spawn) when the deadline clears the job
           slot; they must wait for the next submission, not die on the
           empty slot and leave every later job's pending count short *)
        Pool.with_pool ~domains:4 (fun pool ->
            for round = 1 to 4 do
              (* a genuine stall: the claiming workers are zombied at the
                 end of the grace pass and replacements spawned *)
              (match
                 Pool.run ~deadline_s:0.02 pool ~n:2 (fun _ ->
                     Unix.sleepf 0.3)
               with
              | exception Pool.Timeout -> ()
              | () ->
                Alcotest.failf "round %d: stalled job beat the deadline" round);
              (* immediately fire deadlines so short they clear the job
                 slot while the replacements are still booting and the
                 surviving helpers are still parked (a run fast enough
                 to finish anyway is also legal) *)
              for _ = 1 to 5 do
                match Pool.run ~deadline_s:1e-6 pool ~n:4 (fun _ -> ()) with
                | exception Pool.Timeout -> ()
                | () -> ()
              done
            done;
            let acc = Atomic.make 0 in
            match
              Pool.run ~deadline_s:30.0 pool ~n:100 (fun i ->
                  ignore (Atomic.fetch_and_add acc i))
            with
            | exception e ->
              Alcotest.failf "pool bricked after timeouts: %s"
                (Printexc.to_string e)
            | () ->
              Alcotest.(check int) "no work lost" (99 * 100 / 2)
                (Atomic.get acc)));
    Alcotest.test_case "stats start clean" `Quick (fun () ->
        Pool.with_pool ~domains:2 (fun pool ->
            let s = Pool.stats pool in
            Alcotest.(check int) "timeouts" 0 s.Pool.timeouts;
            Alcotest.(check int) "respawned" 0 s.Pool.respawned));
  ]

let suites =
  [
    ("resilience: journal format", format_tests @ qcheck_tests);
    ("resilience: kill/resume", resume_tests @ qcheck_resume_tests);
    ("resilience: retry policy", retry_tests);
    ("resilience: degraded floor", floor_tests);
    ("resilience: pool deadlines", pool_tests);
  ]
