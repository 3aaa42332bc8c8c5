(* Laws for the observability layer: the atomic metric registry must
   not lose concurrent updates (exercised through a real worker pool),
   histograms must conserve their observations, spans must nest
   well-formedly, and both text exporters must round-trip exactly. *)

module Obs = Stc_obs.Registry
module Trace = Stc_obs.Trace
module Clock = Stc_obs.Clock
module Pool = Stc_process.Pool
module Rng = Stc_numerics.Rng

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------ clock ----------------------------- *)

let clock_tests =
  [
    Alcotest.test_case "monotonic stub works on this platform" `Quick
      (fun () ->
        (* every deadline in the tree assumes this; if the C stub ever
           breaks, fail loudly here rather than hang a timeout *)
        Alcotest.(check bool) "CLOCK_MONOTONIC available" true
          Clock.monotonic);
    Alcotest.test_case "now never goes backwards" `Quick (fun () ->
        let prev = ref (Clock.now ()) in
        for _ = 1 to 10_000 do
          let t = Clock.now () in
          if t < !prev then
            Alcotest.failf "clock stepped back: %.9f -> %.9f" !prev t;
          prev := t
        done);
    Alcotest.test_case "now advances across a real sleep" `Quick (fun () ->
        let t0 = Clock.now () in
        Thread.delay 0.02;
        let dt = Clock.now () -. t0 in
        Alcotest.(check bool)
          (Printf.sprintf "measured %.4fs across a 20ms sleep" dt)
          true
          (dt >= 0.015 && dt < 10.0));
  ]

(* ----------------------------- counters --------------------------- *)

let counter_tests =
  [
    Alcotest.test_case "incr and add accumulate" `Quick (fun () ->
        let c = Obs.Counter.make () in
        Obs.Counter.incr c;
        Obs.Counter.add c 41;
        Alcotest.(check int) "42" 42 (Obs.Counter.get c));
    Alcotest.test_case "negative add rejected (monotone)" `Quick (fun () ->
        let c = Obs.Counter.make () in
        (match Obs.Counter.add c (-1) with
         | exception Invalid_argument _ -> ()
         | () -> Alcotest.fail "expected Invalid_argument");
        Alcotest.(check int) "untouched" 0 (Obs.Counter.get c));
    Alcotest.test_case "pool concurrency: domains x increments sum exactly"
      `Quick (fun () ->
        (* the race-freedom law: every increment from every worker
           domain lands; nothing is lost to a read-modify-write race *)
        let c = Obs.Counter.make () in
        let tasks = 64 and per_task = 2000 in
        Pool.with_pool ~domains:4 (fun pool ->
            Pool.run pool ~n:tasks (fun _ ->
                for _ = 1 to per_task do
                  Obs.Counter.incr c
                done));
        Alcotest.(check int) "exact sum" (tasks * per_task) (Obs.Counter.get c));
    Alcotest.test_case "gauge CAS add survives pool concurrency" `Quick
      (fun () ->
        (* 1.0 increments are exact in binary floating point, so the
           CAS retry loop must produce the exact integer total *)
        let g = Obs.Gauge.make () in
        let tasks = 64 and per_task = 500 in
        Pool.with_pool ~domains:4 (fun pool ->
            Pool.run pool ~n:tasks (fun _ ->
                for _ = 1 to per_task do
                  Obs.Gauge.add g 1.0
                done));
        Alcotest.(check (float 0.0)) "exact sum"
          (float_of_int (tasks * per_task))
          (Obs.Gauge.get g));
  ]

(* ---------------------------- histograms -------------------------- *)

let histogram_tests =
  [
    qtest
      (QCheck.Test.make ~name:"bucket counts sum to observation count"
         ~count:100
         QCheck.(small_list (float_range (-1.0) 200.0))
         (fun vs ->
           let h = Obs.Histogram.make () in
           List.iter (Obs.Histogram.observe h) vs;
           let total =
             Array.fold_left
               (fun acc (_, n) -> acc + n)
               0
               (Obs.Histogram.bucket_counts h)
           in
           total = List.length vs && Obs.Histogram.count h = List.length vs));
    qtest
      (QCheck.Test.make ~name:"sum equals the total of observations" ~count:100
         QCheck.(small_list (int_range 0 1000))
         (fun vs ->
           (* integers are exact, so no tolerance is needed even though
              the additions race through a CAS loop *)
           let h = Obs.Histogram.make () in
           List.iter (fun v -> Obs.Histogram.observe h (float_of_int v)) vs;
           Obs.Histogram.sum h
           = List.fold_left (fun a v -> a +. float_of_int v) 0.0 vs));
    Alcotest.test_case "bounds are inclusive upper edges" `Quick (fun () ->
        let h = Obs.Histogram.make ~buckets:[| 1.0; 2.0; 4.0 |] () in
        Obs.Histogram.observe h 1.0 (* lands in le_1 *);
        Obs.Histogram.observe h 1.5 (* lands in le_2 *);
        Obs.Histogram.observe h 100.0 (* overflow *);
        Alcotest.(check (array (pair (float 0.0) int)))
          "placement"
          [| (1.0, 1); (2.0, 1); (4.0, 0); (Float.infinity, 1) |]
          (Obs.Histogram.bucket_counts h));
    Alcotest.test_case "NaN counts in overflow without poisoning the sum"
      `Quick (fun () ->
        let h = Obs.Histogram.make ~buckets:[| 1.0 |] () in
        Obs.Histogram.observe h 0.5;
        Obs.Histogram.observe h Float.nan;
        Alcotest.(check int) "count" 2 (Obs.Histogram.count h);
        Alcotest.(check (float 0.0)) "sum" 0.5 (Obs.Histogram.sum h);
        Alcotest.(check int) "overflow" 1
          (snd (Obs.Histogram.bucket_counts h).(1)));
    Alcotest.test_case "invalid bucket bounds rejected" `Quick (fun () ->
        List.iter
          (fun buckets ->
            match Obs.Histogram.make ~buckets () with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "expected Invalid_argument")
          [ [||]; [| 1.0; 1.0 |]; [| 2.0; 1.0 |]; [| Float.nan |] ]);
    Alcotest.test_case "time observes even when the thunk raises" `Quick
      (fun () ->
        let h = Obs.Histogram.make () in
        (match Obs.Histogram.time h (fun () -> failwith "boom") with
         | exception Failure _ -> ()
         | () -> Alcotest.fail "expected the exception to propagate");
        Alcotest.(check int) "observed" 1 (Obs.Histogram.count h));
  ]

(* ----------------------------- registry --------------------------- *)

(* A scratch registry with pseudo-random contents, driven by a seed so
   qcheck shrinks to a reproducible case. *)
let populate seed =
  let r = Obs.create () in
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 6 in
  for i = 0 to n - 1 do
    match Rng.int rng 3 with
    | 0 ->
      let c = Obs.counter ~registry:r (Printf.sprintf "c%d_total" i) in
      Obs.Counter.add c (Rng.int rng 100000)
    | 1 ->
      let g = Obs.gauge ~registry:r (Printf.sprintf "g%d" i) in
      Obs.Gauge.set g (Rng.uniform rng (-1e9) 1e9)
    | _ ->
      let h = Obs.histogram ~registry:r (Printf.sprintf "h%d_s" i) in
      for _ = 0 to Rng.int rng 30 do
        Obs.Histogram.observe h (Rng.uniform rng 0.0 150.0)
      done
  done;
  r

let registry_tests =
  [
    Alcotest.test_case "lookups intern by name" `Quick (fun () ->
        let r = Obs.create () in
        Obs.Counter.incr (Obs.counter ~registry:r "stc_test_total");
        Obs.Counter.incr (Obs.counter ~registry:r "stc_test_total");
        Alcotest.(check int) "shared" 2
          (Obs.Counter.get (Obs.counter ~registry:r "stc_test_total")));
    Alcotest.test_case "kind clash rejected" `Quick (fun () ->
        let r = Obs.create () in
        ignore (Obs.counter ~registry:r "stc_test_total");
        (match Obs.gauge ~registry:r "stc_test_total" with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected Invalid_argument"));
    Alcotest.test_case "bad names rejected" `Quick (fun () ->
        let r = Obs.create () in
        List.iter
          (fun name ->
            match Obs.counter ~registry:r name with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail ("accepted bad name " ^ name))
          [ ""; "has space"; "has:colon"; "has\nnewline" ]);
    Alcotest.test_case "flatten is sorted and complete" `Quick (fun () ->
        let r = Obs.create () in
        ignore (Obs.gauge ~registry:r "z");
        ignore (Obs.counter ~registry:r "a_total");
        let names = List.map fst (Obs.flatten ~registry:r ()) in
        Alcotest.(check (list string)) "sorted" [ "a_total"; "z" ] names);
    Alcotest.test_case "reset zeroes every metric" `Quick (fun () ->
        let r = populate 7 in
        Obs.reset ~registry:r ();
        List.iter
          (fun (name, v) ->
            if v <> 0.0 then Alcotest.fail (name ^ " survived reset"))
          (Obs.flatten ~registry:r ()));
    qtest
      (QCheck.Test.make ~name:"text export round-trips to the flatten view"
         ~count:200
         QCheck.(int_bound 100000)
         (fun seed ->
           let r = populate seed in
           Obs.parse_text (Obs.to_text ~registry:r ())
           = Ok (Obs.flatten ~registry:r ())));
    Alcotest.test_case "parse_text rejects junk" `Quick (fun () ->
        List.iter
          (fun text ->
            match Obs.parse_text text with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail ("parsed junk " ^ String.escaped text))
          [
            "";
            "wrong-header\ncounter a 1";
            "stc-metrics-1\nwidget a 1";
            "stc-metrics-1\ncounter a one";
            "stc-metrics-1\nhist h 1 2 nocolon";
          ]);
  ]

(* ------------------------------ tracer ---------------------------- *)

(* Every tracer test runs with the global tracer freshly enabled and
   leaves it disabled and empty, so no other suite sees stray spans. *)
let with_tracing f =
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ();
      Trace.set_capacity 65536)
    f

let trace_tests =
  [
    Alcotest.test_case "disabled tracing records nothing" `Quick (fun () ->
        Trace.clear ();
        Alcotest.(check bool) "off" false (Trace.enabled ());
        Alcotest.(check int) "42" 42 (Trace.with_span "t" (fun () -> 42));
        Alcotest.(check int) "no spans" 0 (List.length (Trace.spans ())));
    Alcotest.test_case "spans record on exception too" `Quick (fun () ->
        with_tracing @@ fun () ->
        (match Trace.with_span "boom" (fun () -> failwith "x") with
         | exception Failure _ -> ()
         | () -> Alcotest.fail "expected the exception to propagate");
        match Trace.spans () with
        | [ (s, name) ] ->
          Alcotest.(check string) "name" "boom" name;
          Alcotest.(check bool) "root" true (s.Trace.parent = 0)
        | l -> Alcotest.fail (Printf.sprintf "%d spans" (List.length l)));
    qtest
      (QCheck.Test.make ~name:"random span trees nest well-formedly" ~count:50
         QCheck.(int_bound 100000)
         (fun seed ->
           with_tracing @@ fun () ->
           let rng = Rng.create seed in
           let rec tree depth =
             Trace.with_span
               (Printf.sprintf "n%d" depth)
               (fun () ->
                 if depth < 4 then
                   for _ = 1 to Rng.int rng 3 do
                     tree (depth + 1)
                   done)
           in
           for _ = 1 to 1 + Rng.int rng 4 do
             tree 0
           done;
           Trace.check_well_formed (Trace.spans ()) = Ok ()));
    qtest
      (QCheck.Test.make ~name:"trace text round-trips every field" ~count:50
         QCheck.(int_bound 100000)
         (fun seed ->
           with_tracing @@ fun () ->
           let rng = Rng.create seed in
           for i = 0 to 3 + Rng.int rng 5 do
             Trace.with_span
               (Printf.sprintf "op %d with spaces" i)
               (fun () -> Trace.with_span "inner" ignore)
           done;
           Trace.parse (Trace.to_text ()) = Ok (Trace.spans ())));
    Alcotest.test_case "eviction keeps parents of retained children" `Quick
      (fun () ->
        with_tracing @@ fun () ->
        Trace.set_capacity 8;
        for i = 0 to 49 do
          Trace.with_span
            (Printf.sprintf "root%d" i)
            (fun () -> Trace.with_span "child" (fun () -> Trace.with_span "grandchild" ignore))
        done;
        let spans = Trace.spans () in
        Alcotest.(check int) "bounded" 8 (List.length spans);
        match Trace.check_well_formed spans with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "pool workers trace as independent roots" `Quick
      (fun () ->
        with_tracing @@ fun () ->
        Pool.with_pool ~domains:4 (fun pool ->
            Pool.run pool ~n:16 (fun i ->
                Trace.with_span
                  (Printf.sprintf "task%d" i)
                  (fun () -> Trace.with_span "step" ignore)));
        let spans = Trace.spans () in
        Alcotest.(check int) "all recorded" 32 (List.length spans);
        (match Trace.check_well_formed spans with
         | Ok () -> ()
         | Error e -> Alcotest.fail e);
        (* nesting never crosses domains: each parent link stays on the
           worker that opened it (check_well_formed verifies this, but
           assert the root structure explicitly too) *)
        List.iter
          (fun (s, name) ->
            let is_root = s.Trace.parent = 0 in
            let is_task = String.length name >= 4 && String.sub name 0 4 = "task" in
            if is_task <> is_root then
              Alcotest.fail (name ^ ": wrong nesting level"))
          spans);
    Alcotest.test_case "invalid capacity rejected" `Quick (fun () ->
        match Trace.set_capacity 0 with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected Invalid_argument");
  ]

(* A writer storm against a concurrent exporter: every export must be a
   parseable snapshot, and the final counts must be exact — the lock-free
   registry never tears or drops an increment. *)
let concurrency_tests =
  [
    Alcotest.test_case "export while incrementing stays consistent" `Quick
      (fun () ->
        let r = Obs.create () in
        let c = Obs.counter ~registry:r "stc_storm_total" in
        let g = Obs.gauge ~registry:r "stc_storm_level" in
        let writers = 4 in
        let per_writer = 5000 in
        let stop = Atomic.make false in
        let exports = ref 0 in
        let export_errors = ref [] in
        let exporter =
          Thread.create
            (fun () ->
              while not (Atomic.get stop) do
                (match Obs.parse_text (Obs.to_text ~registry:r ()) with
                 | Ok flat ->
                   incr exports;
                   (match List.assoc_opt "stc_storm_total" flat with
                    | Some v ->
                      if
                        v < 0.0
                        || v > float_of_int (writers * per_writer)
                        || Float.rem v 1.0 <> 0.0
                      then
                        export_errors :=
                          Printf.sprintf "torn counter value %g" v
                          :: !export_errors
                    | None ->
                      export_errors := "counter missing" :: !export_errors)
                 | Error e -> export_errors := e :: !export_errors);
                Thread.yield ()
              done)
            ()
        in
        let ts =
          List.init writers (fun k ->
              Thread.create
                (fun () ->
                  for i = 1 to per_writer do
                    Obs.Counter.incr c;
                    if i mod 64 = 0 then begin
                      Obs.Gauge.set g (float_of_int (k + i));
                      (* hand the runtime lock over so the exporter
                         really interleaves with the storm *)
                      Thread.yield ()
                    end
                  done)
                ())
        in
        List.iter Thread.join ts;
        (* never stop before the exporter has taken at least one
           snapshot, or the race assertion below is vacuous *)
        let spins = ref 0 in
        while !exports = 0 && !spins < 10_000 do
          incr spins;
          Thread.delay 0.001
        done;
        Atomic.set stop true;
        Thread.join exporter;
        (match !export_errors with
         | [] -> ()
         | e :: _ -> Alcotest.fail e);
        Alcotest.(check bool) "exporter actually raced the writers" true
          (!exports > 0);
        Alcotest.(check int) "no increment lost" (writers * per_writer)
          (Obs.Counter.get c));
  ]

let suites =
  [
    ("obs clock", clock_tests);
    ("obs counters", counter_tests);
    ("obs histograms", histogram_tests);
    ("obs registry", registry_tests);
    ("obs tracer", trace_tests);
    ("obs concurrency", concurrency_tests);
  ]
