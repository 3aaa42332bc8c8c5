(* The learner-zoo differential gate.

   The compaction loop consumes learners only through the LEARNER
   contract (Stc.Learner): train / predict / save / load / name. This
   suite pins everything that makes a second model family safe to
   promote next to the reference ε-SVR:

   - the pure-OCaml MLP's forward pass against a brute-force
     reimplementation, its stc-mlp-1 canonicality law, and the
     determinism-of-training contract (same data ⇒ same bytes);
   - the mutual-information ranker against an O(bins·n)-per-cell
     reference scorer, bit-for-bit, and its permutation invariance;
   - LEARNER save/load laws for every serialisable family;
   - the stc-flow-2 container: round trip, verdict survival, v1 bytes
     untouched for SVR-only flows, and fast line-numbered rejection of
     mlp-under-v1, unknown versions, truncation and family-tag
     mismatches;
   - the differential promotion gate itself: the default MLP must
     match-or-beat SVR escape/yield-loss on the op-amp and MEMS
     benches, and a deliberately bad learner (zero-epoch MLP — a
     deterministic random init) must be rejected.

   Every learner.* suite is on `make suites`'s required list, so CI
   fails if one stops being registered. *)

module Mlp = Stc_learn.Mlp
module Mi = Stc_learn.Mi
module Learner = Stc.Learner
module Compaction = Stc.Compaction
module Order = Stc.Order
module Spec = Stc.Spec
module Device_data = Stc.Device_data
module Experiment = Stc.Experiment
module Guard_band = Stc.Guard_band
module Flow_io = Stc_floor.Flow_io
module Rng = Stc_numerics.Rng
module Gen = Stc_qa.Gen
module Oracle = Stc_qa.Oracle

let qtest = QCheck_alcotest.to_alcotest
let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 9_999)

let check_ok what = function
  | Ok _ -> true
  | Error e -> QCheck.Test.fail_reportf "%s: %s" what e

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

(* ------------------------------ MLP ------------------------------- *)

(* A small two-class training set whose boundary is a hyperplane with
   margin noise — enough structure that SGD actually moves. *)
let mlp_training_set ~seed ~n ~dim =
  let rng = Rng.create seed in
  let x =
    Array.init n (fun _ ->
        Array.init dim (fun _ -> Rng.uniform rng (-1.5) 1.5))
  in
  let y =
    Array.map
      (fun xi -> if Array.fold_left ( +. ) 0.0 xi > 0.1 then 1.0 else -1.0)
      x
  in
  (x, y)

let mlp_tests =
  [
    qtest
      (QCheck.Test.make ~count:200
         ~name:"predict matches the brute-force forward pass" seed_arb
         (fun seed ->
           let rng = Rng.create (41_000 + seed) in
           let dim = 1 + Rng.int rng 4 in
           let m = Gen.run ~seed (Gen.mlp ~dim) in
           let v = Array.init dim (fun _ -> Rng.uniform rng (-2.0) 2.0) in
           check_ok "mlp_agrees" (Oracle.mlp_agrees m v)));
    qtest
      (QCheck.Test.make ~count:200
         ~name:"stc-mlp-1 canonicality: print → parse → print" seed_arb
         (fun seed ->
           let dim = 1 + (seed mod 4) in
           let m = Gen.run ~seed (Gen.mlp ~dim) in
           check_ok "mlp_roundtrips" (Oracle.mlp_roundtrips m)));
    qtest
      (QCheck.Test.make ~count:60
         ~name:"reloaded model predicts bit-identically" seed_arb
         (fun seed ->
           let rng = Rng.create (42_000 + seed) in
           let dim = 1 + Rng.int rng 4 in
           let m = Gen.run ~seed (Gen.mlp ~dim) in
           let m' =
             match Mlp.of_string (Mlp.to_string m) with
             | Ok m' -> m'
             | Error e -> QCheck.Test.fail_reportf "reload failed: %s" e
           in
           for _ = 1 to 20 do
             let v = Array.init dim (fun _ -> Rng.uniform rng (-2.0) 2.0) in
             let a = Mlp.predict m v and b = Mlp.predict m' v in
             if Int64.bits_of_float a <> Int64.bits_of_float b then
               QCheck.Test.fail_reportf
                 "reloaded prediction %.17g differs from %.17g" b a
           done;
           true));
    qtest
      (QCheck.Test.make ~count:10
         ~name:"training is deterministic: same data, same bytes" seed_arb
         (fun seed ->
           let x, y = mlp_training_set ~seed:(43_000 + seed) ~n:40 ~dim:3 in
           let config = { Mlp.default_config with Mlp.epochs = 30 } in
           let a = Mlp.to_string (Mlp.train ~config ~x ~y ()) in
           let b = Mlp.to_string (Mlp.train ~config ~x ~y ()) in
           if a <> b then
             QCheck.Test.fail_reportf "two trainings differ:\n%s\nvs\n%s" a b;
           true));
    qtest
      (QCheck.Test.make ~count:4
         ~name:"training on a generated device is the same at 1/2/4 domains"
         (QCheck.make QCheck.Gen.(pair Gen.enrich_device (int_bound 9_999)))
         (fun ((device, limits), seed) ->
           let config = { Mlp.default_config with Mlp.epochs = 40 } in
           check_ok "mlp_deterministic"
             (Oracle.mlp_deterministic ~config ~seed ~n:60 device ~limits)));
    qtest
      (QCheck.Test.make ~count:10
         ~name:"trained models also satisfy forward-ref and round trip"
         seed_arb
         (fun seed ->
           let x, y = mlp_training_set ~seed:(44_000 + seed) ~n:40 ~dim:3 in
           let config = { Mlp.default_config with Mlp.epochs = 30 } in
           let m = Mlp.train ~config ~x ~y () in
           check_ok "round trip" (Oracle.mlp_roundtrips m)
           && Array.for_all
                (fun v -> check_ok "agree" (Oracle.mlp_agrees m v))
                x));
    Alcotest.test_case "of_string rejects corrupt texts" `Quick (fun () ->
        let m = Gen.run ~seed:7 (Gen.mlp ~dim:3) in
        let text = Mlp.to_string m in
        let expect_error what s =
          match Mlp.of_string s with
          | Ok _ -> Alcotest.failf "%s: corrupt text was accepted" what
          | Error _ -> ()
        in
        expect_error "bad tag"
          ("stc-mlp-9" ^ String.sub text 9 (String.length text - 9));
        (* drop the whole final ("out ...") line, not just trailing
           bytes — a shortened float still parses *)
        let cut = String.rindex_from text (String.length text - 2) '\n' in
        expect_error "truncated" (String.sub text 0 (cut + 1));
        expect_error "trailing data" (text ^ "extra\n");
        expect_error "empty" "";
        expect_error "non-finite"
          (Str.global_replace (Str.regexp "out ") "out nan " text));
  ]

(* ------------------------ mutual information ---------------------- *)

let mi_data ~seed ~n =
  let rng = Rng.create seed in
  let values = Array.init n (fun _ -> Rng.uniform rng (-2.0) 2.0) in
  let labels =
    Array.init n (fun i ->
        if Rng.uniform rng 0.0 1.0 < 0.3 then (if i land 1 = 0 then 1 else -1)
        else if values.(i) > 0.0 then 1
        else -1)
  in
  (values, labels)

let mi_tests =
  [
    qtest
      (QCheck.Test.make ~count:200
         ~name:"score matches the full-rescan reference bit-for-bit" seed_arb
         (fun seed ->
           let rng = Rng.create (45_000 + seed) in
           let n = 2 + Rng.int rng 60 in
           let values, labels = mi_data ~seed:(seed + 1) ~n in
           let bins = 1 + Rng.int rng 12 in
           check_ok "mi_matches_ref" (Oracle.mi_matches_ref ~bins ~labels values)));
    qtest
      (QCheck.Test.make ~count:200
         ~name:"score is invariant under joint permutation" seed_arb
         (fun seed ->
           let rng = Rng.create (46_000 + seed) in
           let n = 2 + Rng.int rng 60 in
           let values, labels = mi_data ~seed:(seed + 2) ~n in
           let permutation = Array.init n (fun i -> i) in
           Rng.shuffle rng permutation;
           check_ok "mi_permutation_invariant"
             (Oracle.mi_permutation_invariant ~permutation ~labels values)));
    Alcotest.test_case "informative columns outrank constant ones" `Quick
      (fun () ->
        let n = 200 in
        let rng = Rng.create 47 in
        let informative = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0) in
        let labels =
          Array.map (fun v -> if v > 0.0 then 1 else -1) informative
        in
        let constant = Array.make n 0.25 in
        let noise = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0) in
        let scores = Mi.scores ~labels [| constant; informative; noise |] in
        Alcotest.(check (float 0.0)) "constant column carries no information"
          0.0 scores.(0);
        if scores.(1) <= scores.(2) then
          Alcotest.failf "label-defining column scored %.6f <= noise %.6f"
            scores.(1) scores.(2);
        let rank = Mi.rank ~labels [| constant; informative; noise |] in
        Alcotest.(check int) "least informative first" 0 rank.(0);
        Alcotest.(check int) "most informative last" 1
          rank.(Array.length rank - 1));
  ]

(* --------------------- LEARNER save/load laws --------------------- *)

let learner_io_tests =
  [
    qtest
      (QCheck.Test.make ~count:120
         ~name:"save → load → save is byte-identical for every family"
         seed_arb
         (fun seed ->
           let rng = Rng.create (48_000 + seed) in
           let dim = 1 + Rng.int rng 3 in
           let m = Gen.run ~seed (Gen.model ~dim) in
           let text =
             match Learner.save m with
             | Ok t -> t
             | Error e -> QCheck.Test.fail_reportf "save: %s" e
           in
           let m' =
             match Learner.load text with
             | Ok m' -> m'
             | Error e -> QCheck.Test.fail_reportf "load: %s" e
           in
           (match Learner.save m' with
           | Ok text' when text' = text -> ()
           | Ok text' ->
             QCheck.Test.fail_reportf "resave differs:\n%svs\n%s" text text'
           | Error e -> QCheck.Test.fail_reportf "resave: %s" e);
           for _ = 1 to 10 do
             let v = Array.init dim (fun _ -> Rng.uniform rng (-2.0) 2.0) in
             if Learner.predict m v <> Learner.predict m' v then
               QCheck.Test.fail_reportf "reloaded model flips a verdict"
           done;
           true));
    Alcotest.test_case "load rejects trailing content" `Quick (fun () ->
        let m = Gen.run ~seed:3 (Gen.model ~dim:2) in
        let text = ok_or_fail "save" (Learner.save m) in
        match Learner.load (text ^ "model constant 1\n") with
        | Ok _ -> Alcotest.fail "trailing model was accepted"
        | Error _ -> ());
  ]

(* ----------------------- stc-flow-2 container --------------------- *)

(* The synthetic compactible population also used by the gate tests:
   spec 3 is spec 0 plus ±0.01 noise, so it can be dropped only by
   actually learning the relationship, and labels are mixed. *)
let synthetic ~seed ~n =
  let k = 4 in
  let specs =
    Array.init k (fun j ->
        Spec.make ~name:(Printf.sprintf "s%d" j) ~unit_label:"V" ~nominal:0.0
          ~lower:(-1.0) ~upper:1.0)
  in
  let rng = Rng.create seed in
  let rows =
    Array.init n (fun _ ->
        let row = Array.init k (fun _ -> Rng.uniform rng (-1.5) 1.5) in
        row.(k - 1) <- row.(0) +. Rng.uniform rng (-0.01) 0.01;
        row)
  in
  Device_data.make ~specs ~values:rows

let mlp_flow () =
  let train = synthetic ~seed:11 ~n:150 in
  let config =
    { Compaction.default_config with Compaction.learner = Learner.default_mlp }
  in
  Compaction.make_flow config train ~dropped:[| 3 |]

let flow_text flow = ok_or_fail "Flow_io.to_string" (Flow_io.to_string flow)

let replace_once ~from ~into text =
  match Str.bounded_split_delim (Str.regexp_string from) text 2 with
  | [ before; after ] -> before ^ into ^ after
  | _ -> Alcotest.failf "fixture does not contain %S" from

let expect_parse_error what ~mentions text =
  match Flow_io.of_string text with
  | Ok _ -> Alcotest.failf "%s: corrupt flow was accepted" what
  | Error e ->
    List.iter
      (fun needle ->
        let re = Str.regexp_string needle in
        match Str.search_forward re e 0 with
        | _ -> ()
        | exception Not_found ->
          Alcotest.failf "%s: error %S does not mention %S" what e needle)
      mentions

let flow2_tests =
  [
    Alcotest.test_case "MLP flows write stc-flow-2 and round trip" `Quick
      (fun () ->
        let flow = mlp_flow () in
        Alcotest.(check string)
          "version_of_flow" Flow_io.version2
          (Flow_io.version_of_flow flow);
        let text = flow_text flow in
        let header = String.sub text 0 (String.index text '\n') in
        Alcotest.(check string) "header line" Flow_io.version2 header;
        ok_or_fail "flow_roundtrips" (Oracle.flow_roundtrips flow));
    Alcotest.test_case "reloaded MLP flow reproduces every verdict" `Quick
      (fun () ->
        let flow = mlp_flow () in
        let rows = Device_data.values (synthetic ~seed:12 ~n:100) in
        ok_or_fail "flow_verdicts_survive"
          (Oracle.flow_verdicts_survive flow rows));
    Alcotest.test_case "SVR-only flows keep the stc-flow-1 header" `Quick
      (fun () ->
        let train = synthetic ~seed:11 ~n:150 in
        let config =
          { Compaction.default_config with Compaction.tolerance = 0.10 }
        in
        let flow = Compaction.make_flow config train ~dropped:[| 3 |] in
        Alcotest.(check string)
          "version_of_flow" Flow_io.version
          (Flow_io.version_of_flow flow);
        let text = flow_text flow in
        let header = String.sub text 0 (String.index text '\n') in
        Alcotest.(check string) "header line" Flow_io.version header);
    Alcotest.test_case "an MLP model under a v1 header is rejected" `Quick
      (fun () ->
        let text = flow_text (mlp_flow ()) in
        let downgraded =
          replace_once ~from:Flow_io.version2 ~into:Flow_io.version text
        in
        expect_parse_error "mlp under v1"
          ~mentions:[ "line "; "mlp"; "not allowed" ]
          downgraded);
    Alcotest.test_case "future container versions are rejected" `Quick
      (fun () ->
        let text = flow_text (mlp_flow ()) in
        let skewed =
          replace_once ~from:Flow_io.version2 ~into:"stc-flow-3" text
        in
        expect_parse_error "stc-flow-3"
          ~mentions:[ "unsupported flow version" ]
          skewed);
    Alcotest.test_case "a truncated flow is rejected" `Quick (fun () ->
        let text = flow_text (mlp_flow ()) in
        let truncated = String.sub text 0 (String.length text / 2) in
        expect_parse_error "truncated" ~mentions:[ "line " ] truncated);
    Alcotest.test_case "a family-tag mismatch fails at the model line" `Quick
      (fun () ->
        let text = flow_text (mlp_flow ()) in
        let swapped = replace_once ~from:"stc-mlp-1" ~into:"stc-svr-1" text in
        expect_parse_error "family mismatch"
          ~mentions:[ "line "; "model family mismatch" ]
          swapped);
  ]

(* ------------------------- promotion gates ------------------------ *)

let check_promotes name ?order config ~train ~test ~candidate =
  match Oracle.learner_promotes ?order ~candidate config ~train ~test with
  | Error e -> Alcotest.failf "%s: candidate was rejected: %s" name e
  | Ok p ->
    if p.Oracle.candidate_dropped = 0 then
      Alcotest.failf "%s: candidate promoted without compacting anything" name;
    if p.Oracle.candidate_escape_pct > p.Oracle.baseline_escape_pct then
      Alcotest.failf "%s: escape %.3f%% above baseline %.3f%%" name
        p.Oracle.candidate_escape_pct p.Oracle.baseline_escape_pct;
    if p.Oracle.candidate_loss_pct > p.Oracle.baseline_loss_pct then
      Alcotest.failf "%s: yield loss %.3f%% above baseline %.3f%%" name
        p.Oracle.candidate_loss_pct p.Oracle.baseline_loss_pct

let gate_tests =
  [
    Alcotest.test_case "MLP promotes on the op-amp bench" `Quick (fun () ->
        let train, test =
          Experiment.generate_opamp ~seed:701 ~n_train:80 ~n_test:40 ()
        in
        check_promotes "opamp"
          ~order:(Order.Given Experiment.opamp_examination_order)
          Experiment.opamp_config ~train ~test
          ~candidate:Learner.default_mlp);
    Alcotest.test_case "MLP promotes on the MEMS bench" `Quick (fun () ->
        let train, test =
          Experiment.generate_mems ~seed:702 ~n_train:200 ~n_test:100 ()
        in
        check_promotes "mems" Experiment.mems_config ~train ~test
          ~candidate:Learner.default_mlp);
    Alcotest.test_case "MLP promotes under the MI examination order" `Quick
      (fun () ->
        let train, test =
          Experiment.generate_opamp ~seed:701 ~n_train:80 ~n_test:40 ()
        in
        check_promotes "opamp/mi" ~order:Order.By_mutual_information
          Experiment.opamp_config ~train ~test
          ~candidate:Learner.default_mlp);
    Alcotest.test_case "a zero-epoch MLP is rejected by the gate" `Quick
      (fun () ->
        let train = synthetic ~seed:11 ~n:150 in
        let test = synthetic ~seed:12 ~n:100 in
        let config =
          { Compaction.default_config with Compaction.tolerance = 0.10 }
        in
        let bad =
          Compaction.Mlp { Mlp.default_config with Mlp.epochs = 0 }
        in
        match
          Oracle.learner_promotes ~candidate:bad config ~train ~test
        with
        | Ok p ->
          Alcotest.failf
            "bad learner promoted: baseline dropped %d, candidate dropped %d"
            p.Oracle.baseline_dropped p.Oracle.candidate_dropped
        | Error _ -> ());
    Alcotest.test_case "the gate's baseline actually compacts the fixture"
      `Quick (fun () ->
        (* guards the bad-learner test above against becoming vacuous:
           if SVR ever stops dropping a spec here, the rejection would
           no longer demonstrate anything *)
        let train = synthetic ~seed:11 ~n:150 in
        let test = synthetic ~seed:12 ~n:100 in
        let config =
          { Compaction.default_config with Compaction.tolerance = 0.10 }
        in
        let r = Compaction.greedy config ~train ~test in
        let dropped = Array.length r.Compaction.flow.Compaction.dropped in
        if dropped < 1 then
          Alcotest.failf "baseline SVR dropped %d specs on the fixture" dropped);
  ]

let suites =
  [
    ("learner.mlp", mlp_tests);
    ("learner.mi", mi_tests);
    ("learner.io", learner_io_tests);
    ("learner.flow2", flow2_tests);
    ("learner.gate", gate_tests);
  ]
