(* Tests for process variation and Monte-Carlo generation. *)

module Variation = Stc_process.Variation
module Montecarlo = Stc_process.Montecarlo
module Rng = Stc_numerics.Rng
module Stats = Stc_numerics.Stats

let qtest = QCheck_alcotest.to_alcotest

let variation_tests =
  [
    Alcotest.test_case "fixed never varies" `Quick (fun () ->
        let p = Variation.param "x" 3.0 Variation.Fixed in
        let rng = Rng.create 1 in
        for _ = 1 to 50 do
          Alcotest.(check (float 0.0)) "fixed" 3.0 (Variation.sample rng p)
        done);
    Alcotest.test_case "uniform_pct bounds" `Quick (fun () ->
        let p = Variation.uniform_pct "w" 10.0 ~pct:0.10 in
        let rng = Rng.create 2 in
        for _ = 1 to 1000 do
          let v = Variation.sample rng p in
          Alcotest.(check bool) "within ±10%" true (v >= 9.0 && v < 11.0)
        done);
    Alcotest.test_case "uniform_pct handles negative nominal" `Quick (fun () ->
        let p = Variation.uniform_pct "skew" (-2.0) ~pct:0.10 in
        let rng = Rng.create 3 in
        for _ = 1 to 200 do
          let v = Variation.sample rng p in
          Alcotest.(check bool) "within band" true (v >= -2.2 && v <= -1.8)
        done);
    Alcotest.test_case "uniform mean near nominal" `Quick (fun () ->
        let p = Variation.uniform_pct "c" 5.0 ~pct:0.10 in
        let rng = Rng.create 4 in
        let xs = Array.init 20000 (fun _ -> Variation.sample rng p) in
        Alcotest.(check (float 0.01)) "mean" 5.0 (Stats.mean xs));
    Alcotest.test_case "normal_relative sigma" `Quick (fun () ->
        let p = Variation.param "x" 10.0 (Variation.Normal_relative 0.05) in
        let rng = Rng.create 5 in
        let xs = Array.init 20000 (fun _ -> Variation.sample rng p) in
        Alcotest.(check (float 0.02)) "sd" 0.5 (Stats.stddev xs));
    Alcotest.test_case "uniform_absolute range" `Quick (fun () ->
        let p = Variation.param "x" 0.0 (Variation.Uniform_absolute (2.0, 4.0)) in
        let rng = Rng.create 6 in
        for _ = 1 to 500 do
          let v = Variation.sample rng p in
          Alcotest.(check bool) "range" true (v >= 2.0 && v < 4.0)
        done);
    qtest
      (QCheck.Test.make ~name:"sample_all aligns with params" ~count:50
         QCheck.(int_range 0 10000)
         (fun seed ->
           let params =
             Array.init 5 (fun i ->
                 Variation.uniform_pct (string_of_int i) (float_of_int (i + 1))
                   ~pct:0.10)
           in
           let rng = Rng.create seed in
           let draw = Variation.sample_all rng params in
           Array.length draw = 5
           && Array.for_all2
                (fun v p ->
                  let nominal = p.Variation.nominal in
                  v >= 0.9 *. nominal && v <= 1.1 *. nominal)
                draw params));
  ]

(* A toy analytic device: two parameters, three "specs". *)
let toy_device =
  {
    Montecarlo.device_name = "toy";
    params =
      [|
        Variation.uniform_pct "a" 1.0 ~pct:0.10;
        Variation.uniform_pct "b" 2.0 ~pct:0.10;
      |];
    spec_count = 3;
    simulate =
      (fun v -> Some [| v.(0); v.(1); v.(0) +. v.(1) |]);
  }

let flaky_device threshold =
  {
    toy_device with
    Montecarlo.device_name = "flaky";
    simulate = (fun v -> if v.(0) > threshold then None else Some [| v.(0); v.(1); 0.0 |]);
  }

(* The generator on one domain. *)
let serial ?max_failure_ratio ?draw ~seed device ~n =
  Montecarlo.generate_parallel ?max_failure_ratio ?draw ~domains:1 ~seed
    device ~n

let montecarlo_tests =
  [
    Alcotest.test_case "generates requested count" `Quick (fun () ->
        let d = serial ~seed:1 toy_device ~n:57 in
        Alcotest.(check int) "inputs" 57 (Array.length d.Montecarlo.inputs);
        Alcotest.(check int) "specs" 57 (Array.length d.Montecarlo.specs);
        Alcotest.(check int) "no discards" 0 d.Montecarlo.discarded);
    Alcotest.test_case "deterministic per seed" `Quick (fun () ->
        let a = serial ~seed:42 toy_device ~n:10 in
        let b = serial ~seed:42 toy_device ~n:10 in
        Alcotest.(check (float 0.0)) "same draw"
          a.Montecarlo.inputs.(3).(1) b.Montecarlo.inputs.(3).(1));
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = serial ~seed:1 toy_device ~n:5 in
        let b = serial ~seed:2 toy_device ~n:5 in
        Alcotest.(check bool) "differ" true
          (a.Montecarlo.inputs.(0).(0) <> b.Montecarlo.inputs.(0).(0)));
    Alcotest.test_case "spec derived consistently" `Quick (fun () ->
        let d = serial ~seed:7 toy_device ~n:20 in
        Array.iteri
          (fun i input ->
            Alcotest.(check (float 1e-12)) "sum spec"
              (input.(0) +. input.(1))
              d.Montecarlo.specs.(i).(2))
          d.Montecarlo.inputs);
    Alcotest.test_case "failed draws are redrawn and counted" `Quick (fun () ->
        (* fails roughly half the time: a > 1.0 *)
        let d =
          serial ~max_failure_ratio:10.0 ~seed:3 (flaky_device 1.0) ~n:30
        in
        Alcotest.(check int) "count" 30 (Array.length d.Montecarlo.inputs);
        Alcotest.(check bool) "some discards" true (d.Montecarlo.discarded > 0);
        Array.iter
          (fun input ->
            Alcotest.(check bool) "survivors below threshold" true (input.(0) <= 1.0))
          d.Montecarlo.inputs);
    Alcotest.test_case "hopeless device raises" `Quick (fun () ->
        (match serial ~seed:1 (flaky_device 0.0) ~n:30 with
         | exception Montecarlo.Too_many_failures _ -> ()
         | _ -> Alcotest.fail "expected Too_many_failures"));
    Alcotest.test_case "split and take" `Quick (fun () ->
        let d = serial ~seed:5 toy_device ~n:20 in
        let a, b = Montecarlo.split d ~at:12 in
        Alcotest.(check int) "left" 12 (Array.length a.Montecarlo.inputs);
        Alcotest.(check int) "right" 8 (Array.length b.Montecarlo.inputs);
        Alcotest.(check (float 0.0)) "boundary preserved"
          d.Montecarlo.specs.(12).(0) b.Montecarlo.specs.(0).(0);
        let t = Montecarlo.take d 5 in
        Alcotest.(check int) "take" 5 (Array.length t.Montecarlo.specs));
    Alcotest.test_case "uniform generation carries unit weights" `Quick
      (fun () ->
        let d = serial ~seed:5 toy_device ~n:12 in
        Alcotest.(check int) "length" 12 (Array.length d.Montecarlo.weights);
        Array.iter
          (fun w -> Alcotest.(check (float 0.0)) "unit weight" 1.0 w)
          d.Montecarlo.weights;
        let a, b = Montecarlo.split d ~at:7 in
        Alcotest.(check int) "left weights" 7
          (Array.length a.Montecarlo.weights);
        Alcotest.(check int) "right weights" 5
          (Array.length b.Montecarlo.weights));
    Alcotest.test_case "take/split apportion the discarded count" `Quick
      (fun () ->
        let d =
          serial ~max_failure_ratio:10.0 ~seed:3 (flaky_device 1.0) ~n:30
        in
        Alcotest.(check bool) "has discards" true (d.Montecarlo.discarded > 0);
        let a, b = Montecarlo.split d ~at:12 in
        Alcotest.(check int) "halves sum exactly" d.Montecarlo.discarded
          (a.Montecarlo.discarded + b.Montecarlo.discarded);
        Alcotest.(check int) "left share is proportional"
          (d.Montecarlo.discarded * 12 / 30)
          a.Montecarlo.discarded;
        Alcotest.(check int) "take matches split's left share"
          a.Montecarlo.discarded
          (Montecarlo.take d 12).Montecarlo.discarded;
        Alcotest.(check int) "take all keeps everything"
          d.Montecarlo.discarded
          (Montecarlo.take d 30).Montecarlo.discarded;
        Alcotest.(check int) "take none keeps nothing" 0
          (Montecarlo.take d 0).Montecarlo.discarded);
    Alcotest.test_case "failure cap aborts promptly" `Quick (fun () ->
        (* a hopeless device: with n=30 and the default ratio the cap is
           max 10 (0.5·30) = 15 failures, so exactly 16 simulations run
           before the abort *)
        let calls = ref 0 in
        let counting =
          {
            toy_device with
            Montecarlo.device_name = "hopeless";
            simulate =
              (fun _ ->
                incr calls;
                None);
          }
        in
        (match serial ~seed:1 counting ~n:30 with
         | exception Montecarlo.Too_many_failures _ -> ()
         | _ -> Alcotest.fail "expected Too_many_failures");
        Alcotest.(check int) "aborts after cap+1 calls" 16 !calls);
    Alcotest.test_case "spec_column extracts" `Quick (fun () ->
        let d = serial ~seed:5 toy_device ~n:8 in
        let col = Montecarlo.spec_column d 2 in
        Alcotest.(check int) "length" 8 (Array.length col);
        Alcotest.(check (float 0.0)) "value" d.Montecarlo.specs.(3).(2) col.(3));
    Alcotest.test_case "draw: default and custom samplers" `Quick (fun () ->
        (* the default draw consumes instance i's first stream exactly as
           Variation.sample_all does, so a caller can re-draw it *)
        let d = serial ~seed:9 toy_device ~n:6 in
        Array.iteri
          (fun i row ->
            let rng = Montecarlo.instance_rng ~seed:9 ~index:i ~attempt:0 in
            Alcotest.(check (array (float 0.0))) "re-drawn"
              (Variation.sample_all rng toy_device.Montecarlo.params)
              row)
          d.Montecarlo.inputs;
        let custom =
          serial ~seed:1 toy_device ~n:5 ~draw:(fun _ -> [| 3.0; 4.0 |])
        in
        Array.iter
          (fun row -> Alcotest.(check (float 0.0)) "spec = 3 + 4" 7.0 row.(2))
          custom.Montecarlo.specs);
  ]

(* Bit patterns of a dataset's inputs and specs. *)
let bits d =
  let rows a = Array.map (Array.map Int64.bits_of_float) a in
  (rows d.Montecarlo.inputs, rows d.Montecarlo.specs)

let parallel_tests =
  [
    Alcotest.test_case "domain count does not change the dataset" `Quick
      (fun () ->
        (* n = 123 leaves uneven chunks; the flaky device's retries make
           [discarded] nonzero *)
        List.iter
          (fun device ->
            let run domains =
              Montecarlo.generate_parallel ~max_failure_ratio:10.0 ~domains
                ~seed:11 device ~n:123
            in
            let one = run 1 in
            Alcotest.(check int) "count" 123
              (Array.length one.Montecarlo.inputs);
            Array.iter
              (fun row ->
                Alcotest.(check int) "every instance drawn" 2
                  (Array.length row))
              one.Montecarlo.inputs;
            List.iter
              (fun domains ->
                let d = run domains in
                Alcotest.(check bool)
                  (Printf.sprintf "%s: bit-identical at %d domains"
                     device.Montecarlo.device_name domains)
                  true
                  (bits one = bits d);
                Alcotest.(check int) "same discarded" one.Montecarlo.discarded
                  d.Montecarlo.discarded)
              [ 2; 4 ])
          [ toy_device; flaky_device 1.0 ]);
    Alcotest.test_case "parallel retries keep determinism" `Quick (fun () ->
        let flaky = flaky_device 1.0 in
        let one =
          Montecarlo.generate_parallel ~max_failure_ratio:10.0 ~domains:1
            ~seed:3 flaky ~n:40
        in
        let four =
          Montecarlo.generate_parallel ~max_failure_ratio:10.0 ~domains:4
            ~seed:3 flaky ~n:40
        in
        Alcotest.(check int) "same discards" one.Montecarlo.discarded
          four.Montecarlo.discarded;
        Array.iteri
          (fun i row ->
            Alcotest.(check (float 0.0)) "same draw" row.(0)
              four.Montecarlo.inputs.(i).(0);
            Alcotest.(check bool) "survivor below threshold" true
              (row.(0) <= 1.0))
          one.Montecarlo.inputs);
    Alcotest.test_case "parallel failure cap raises" `Quick (fun () ->
        match
          Montecarlo.generate_parallel ~domains:2 ~seed:1 (flaky_device 0.0)
            ~n:30
        with
        | exception Montecarlo.Too_many_failures _ -> ()
        | _ -> Alcotest.fail "expected Too_many_failures");
    Alcotest.test_case "no stream is shared across seeds or attempts" `Quick
      (fun () ->
        (* a linear stream mix (seed + index·0x9E3779B1 + ...) makes seed
           s + 0x9E3779B1 replay seed s shifted by one instance *)
        let s = 2005 in
        let rows seed = fst (bits (serial ~seed toy_device ~n:50)) in
        let base = rows s in
        List.iter
          (fun seed ->
            let shared =
              Array.fold_left
                (fun k row -> if Array.mem row base then k + 1 else k)
                0 (rows seed)
            in
            Alcotest.(check int)
              (Printf.sprintf "instances of seed %d shared with seed %d" seed s)
              0 shared)
          [ s + 1; s + 0x9E3779B1 ];
        let first = Hashtbl.create 512 in
        for index = 0 to 63 do
          for attempt = 0 to 7 do
            let rng = Montecarlo.instance_rng ~seed:s ~index ~attempt in
            let x = Rng.uint64 rng in
            (match Hashtbl.find_opt first x with
             | Some (i, a) ->
               Alcotest.failf
                 "(index %d, attempt %d) and (%d, %d) share a first draw"
                 index attempt i a
             | None -> ());
            Hashtbl.add first x (index, attempt)
          done
        done);
  ]

(* --------------------------- enrichment --------------------------- *)

module Enrich = Stc_process.Enrich

(* Limits on the toy device placed so the uniform yield sits away from
   0 %/100 % — a boundary exists for the sampler to enrich. *)
let toy_limits =
  [|
    (neg_infinity, 1.05);  (* a: ~75 % pass, one-sided *)
    (1.85, infinity);      (* b: ~87 % pass, one-sided *)
    (2.80, 3.20);          (* a+b: two-sided *)
  |]

let enrich_tests =
  [
    Alcotest.test_case "bit-identical across 1/2/4 domains" `Quick (fun () ->
        match
          Stc_qa.Oracle.enrichment_deterministic ~domain_counts:[ 1; 2; 4 ]
            ~seed:11 ~pilot:40 ~n:160 toy_device ~limits:toy_limits
        with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "weighted yield matches uniform yield" `Quick (fun () ->
        match
          Stc_qa.Oracle.enrichment_unbiased ~seed:7 ~pilot:80 ~n:500
            toy_device ~limits:toy_limits
        with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "boundary density exceeds uniform at equal budget"
      `Quick (fun () ->
        let n = 500 in
        let enriched, stats =
          Enrich.generate ~seed:19 ~pilot:100 toy_device ~limits:toy_limits ~n
        in
        Alcotest.(check bool) "surrogate fitted" true
          stats.Enrich.surrogate_ok;
        let uniform =
          Montecarlo.generate_parallel ~seed:1019 toy_device ~n
        in
        (* a shared yardstick: sigmas measured on the uniform set *)
        let sigmas = Enrich.spec_sigmas uniform in
        let density d =
          Enrich.boundary_fraction ~limits:toy_limits ~sigmas ~width:0.5 d
        in
        let du = density uniform and de = density enriched in
        if not (de > du) then
          Alcotest.failf "enriched density %.3f not above uniform %.3f" de du);
    Alcotest.test_case "stats are coherent" `Quick (fun () ->
        let d, stats =
          Enrich.generate ~seed:3 ~pilot:50 toy_device ~limits:toy_limits
            ~n:200
        in
        Alcotest.(check int) "pilot" 50 stats.Enrich.pilot;
        Alcotest.(check int) "enriched" 150 stats.Enrich.enriched;
        Alcotest.(check bool) "proposals cover the enriched draws" true
          (stats.Enrich.proposals >= stats.Enrich.enriched);
        Alcotest.(check bool) "acceptance in (0, 1]" true
          (stats.Enrich.acceptance_rate > 0.0
          && stats.Enrich.acceptance_rate <= 1.0);
        for i = 0 to 49 do
          Alcotest.(check (float 0.0)) "pilot weight is 1" 1.0
            d.Montecarlo.weights.(i)
        done;
        Array.iter
          (fun w ->
            Alcotest.(check bool) "weights finite positive" true
              (Float.is_finite w && w > 0.0))
          d.Montecarlo.weights);
    Alcotest.test_case "degenerate pilot falls back to uniform" `Quick
      (fun () ->
        (* constant specs: zero pilot spread, no usable surrogate *)
        let flat =
          {
            toy_device with
            Montecarlo.device_name = "flat";
            simulate = (fun _ -> Some [| 1.0; 2.0; 3.0 |]);
          }
        in
        let d, stats =
          Enrich.generate ~seed:5 ~pilot:30 flat ~limits:toy_limits ~n:100
        in
        Alcotest.(check bool) "degraded" false stats.Enrich.surrogate_ok;
        Array.iter
          (fun w -> Alcotest.(check (float 0.0)) "unit weights" 1.0 w)
          d.Montecarlo.weights);
    Alcotest.test_case "argument validation" `Quick (fun () ->
        let expect_invalid f =
          match f () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "expected Invalid_argument"
        in
        expect_invalid (fun () ->
            Enrich.generate ~seed:1 ~pilot:0 toy_device ~limits:toy_limits
              ~n:10);
        expect_invalid (fun () ->
            Enrich.generate ~seed:1 ~pilot:10 toy_device ~limits:toy_limits
              ~n:10);
        expect_invalid (fun () ->
            Enrich.generate ~seed:1 ~pilot:2 toy_device ~limits:[| (0.0, 1.0) |]
              ~n:10));
  ]

let suites =
  [
    ("process.variation", variation_tests);
    ("process.montecarlo", montecarlo_tests);
    ("process.parallel", parallel_tests);
    ("process.enrich", enrich_tests);
  ]
