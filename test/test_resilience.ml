(* Tests for the resilience layer: the stc-journal-1 write-ahead format
   and kill/resume bit-identical compaction. *)

module Spec = Stc.Spec
module Device_data = Stc.Device_data
module Compaction = Stc.Compaction
module Guard_band = Stc.Guard_band
module Journal = Stc.Journal
module Order = Stc.Order
module Flow_io = Stc_floor.Flow_io
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
        Compaction.greedy ~journal:w ~replay cfg ~train ~test)

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
                "Compaction.greedy: journal step 0 examined spec %d but this \
                 run examines spec %d (order or data mismatch)"
                bogus.(0).Journal.spec_index order.(0)))
          (fun () ->
            ignore
              (Compaction.greedy ~replay:bogus config ~train ~test)));
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

let suites =
  [
    ("resilience: journal format", format_tests @ qcheck_tests);
    ("resilience: kill/resume", resume_tests @ qcheck_resume_tests);
  ]
