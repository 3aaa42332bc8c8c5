(* Tests for the SVM substrate: the RBF kernel, the SMO solver, SVC,
   SVR, the kernel-row cache, gamma heuristics and flat storage. *)

module Kernel = Stc_svm.Kernel
module Smo = Stc_svm.Smo
module Svc = Stc_svm.Svc
module Svr = Stc_svm.Svr
module Model = Stc_svm.Model
module Flat = Stc_svm.Flat
module Row_cache = Stc_svm.Row_cache
module Rng = Stc_numerics.Rng

let check_close tol = Alcotest.(check (float tol))

let qtest = QCheck_alcotest.to_alcotest

let vec_pair =
  QCheck.(pair (array_of_size (Gen.return 4) (float_range (-5.) 5.))
            (array_of_size (Gen.return 4) (float_range (-5.) 5.)))

let kernel_tests =
  [
    Alcotest.test_case "rbf at zero distance is 1" `Quick (fun () ->
        check_close 1e-12 "k(x,x)" 1.0
          (Kernel.rbf 0.5 [| 1.; 2. |] [| 1.; 2. |]));
    Alcotest.test_case "default gamma" `Quick (fun () ->
        check_close 1e-12 "1/dim" 0.25 (Kernel.default_gamma ~dim:4));
    qtest
      (QCheck.Test.make ~name:"kernels are symmetric" ~count:200 vec_pair
         (fun (x, y) ->
           List.for_all
             (fun gamma ->
               let a = Kernel.rbf gamma x y and b = Kernel.rbf gamma y x in
               Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs a))
             [ 0.05; 0.3; 1.0; 4.0 ]));
    qtest
      (QCheck.Test.make ~name:"rbf bounded by (0,1]" ~count:200 vec_pair
         (fun (x, y) ->
           let v = Kernel.rbf 0.7 x y in
           v > 0.0 && v <= 1.0));
    qtest
      (QCheck.Test.make ~name:"rbf 2x2 gram is PSD" ~count:200 vec_pair
         (fun (x, y) ->
           let k = Kernel.rbf 0.4 in
           let kxx = k x x and kyy = k y y in
           let kxy = k x y in
           (* PSD for 2 points: det >= 0 and trace >= 0 *)
           (kxx *. kyy) -. (kxy *. kxy) >= -1e-9));
  ]

(* Analytic two-point SVC problem: points x=-1 (y=-1), x=+1 (y=+1) with
   linear kernel. Dual optimum: alpha1 = alpha2 = 0.5 (unbounded C),
   decision f(x) = x. *)
let smo_tests =
  [
    Alcotest.test_case "two-point analytic optimum" `Quick (fun () ->
        let x = [| [| -1.0 |]; [| 1.0 |] |] in
        let y = [| -1.0; 1.0 |] in
        let q_row i =
          Array.init 2 (fun j -> y.(i) *. y.(j) *. (x.(i).(0) *. x.(j).(0)))
        in
        let problem =
          {
            Smo.size = 2;
            q_row;
            q_diag = [| 1.0; 1.0 |];
            p = [| -1.0; -1.0 |];
            y;
            c = 100.0;
          }
        in
        let sol = Smo.solve problem in
        check_close 1e-6 "alpha0" 0.5 sol.Smo.alpha.(0);
        check_close 1e-6 "alpha1" 0.5 sol.Smo.alpha.(1);
        check_close 1e-6 "rho" 0.0 sol.Smo.rho);
    Alcotest.test_case "box constraints respected" `Quick (fun () ->
        let rng = Rng.create 9 in
        let n = 40 in
        let x = Array.init n (fun _ -> [| Rng.uniform rng (-1.) 1.; Rng.uniform rng (-1.) 1. |]) in
        let y = Array.init n (fun i -> if x.(i).(0) +. x.(i).(1) > 0.0 then 1.0 else -1.0) in
        let k = Kernel.rbf 1.0 in
        let q_row i = Array.init n (fun j -> y.(i) *. y.(j) *. k x.(i) x.(j)) in
        let c = 2.5 in
        let problem =
          {
            Smo.size = n;
            q_row;
            q_diag = Array.init n (fun i -> k x.(i) x.(i));
            p = Array.make n (-1.0);
            y;
            c;
          }
        in
        let sol = Smo.solve problem in
        Array.iter
          (fun a ->
            Alcotest.(check bool) "0 <= a <= C" true (a >= -1e-9 && a <= c +. 1e-9))
          sol.Smo.alpha;
        (* equality constraint y^T alpha = 0 *)
        let dot = ref 0.0 in
        Array.iteri (fun i a -> dot := !dot +. (y.(i) *. a)) sol.Smo.alpha;
        check_close 1e-6 "y.alpha" 0.0 !dot);
    Alcotest.test_case "objective decreases vs zero start" `Quick (fun () ->
        (* at alpha = 0 the SVC objective is 0; the optimum must be <= 0 *)
        let x = [| [| 0.0 |]; [| 1.0 |]; [| 2.0 |]; [| 3.0 |] |] in
        let y = [| -1.0; -1.0; 1.0; 1.0 |] in
        let k = Kernel.rbf 0.5 in
        let q_row i = Array.init 4 (fun j -> y.(i) *. y.(j) *. k x.(i) x.(j)) in
        let problem =
          {
            Smo.size = 4;
            q_row;
            q_diag = Array.init 4 (fun i -> k x.(i) x.(i));
            p = Array.make 4 (-1.0);
            y;
            c = 10.0;
          }
        in
        let sol = Smo.solve problem in
        Alcotest.(check bool) "obj <= 0" true (sol.Smo.objective <= 1e-9));
  ]

let svc_tests =
  [
    Alcotest.test_case "separates linear data" `Quick (fun () ->
        let rng = Rng.create 4 in
        let make n =
          Array.init n (fun _ ->
              let a = Rng.uniform rng (-1.) 1. and b = Rng.uniform rng (-1.) 1. in
              ([| a; b |], if a +. b > 0.1 || a +. b < -0.1 then
                 (if a +. b > 0.0 then 1 else -1) else if Rng.bool rng then 1 else -1))
        in
        let data = make 200 in
        let x = Array.map fst data and y = Array.map snd data in
        let m = Svc.train ~c:1.0 ~x ~y () in
        let correct =
          Array.fold_left
            (fun acc (xi, yi) -> if Model.classify m xi = yi then acc + 1 else acc)
            0 data
        in
        Alcotest.(check bool) "90%+ train accuracy" true (correct > 180));
    Alcotest.test_case "xor needs rbf" `Quick (fun () ->
        let x = [| [| 0.; 0. |]; [| 0.; 1. |]; [| 1.; 0. |]; [| 1.; 1. |] |] in
        let y = [| -1; 1; 1; -1 |] in
        let m = Svc.train ~c:100.0 ~gamma:2.0 ~x ~y () in
        Array.iteri
          (fun i xi -> Alcotest.(check int) "xor" y.(i) (Model.classify m xi))
          x);
    Alcotest.test_case "decision sign consistent with predict" `Quick (fun () ->
        let x = [| [| 0. |]; [| 1. |]; [| 2. |]; [| 3. |] |] in
        let y = [| -1; -1; 1; 1 |] in
        let m = Svc.train ~x ~y () in
        Array.iter
          (fun xi ->
            let d = Model.decision m xi and p = Model.classify m xi in
            Alcotest.(check bool) "sign" true ((d >= 0.0) = (p = 1)))
          x);
    Alcotest.test_case "rejects bad labels" `Quick (fun () ->
        (match Svc.train ~x:[| [| 0. |] |] ~y:[| 2 |] () with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected Invalid_argument"));
    Alcotest.test_case "rejects single class" `Quick (fun () ->
        (match Svc.train ~x:[| [| 0. |]; [| 1. |] |] ~y:[| 1; 1 |] () with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected Invalid_argument"));
    Alcotest.test_case "support vectors bounded by data" `Quick (fun () ->
        let rng = Rng.create 12 in
        let n = 100 in
        let x = Array.init n (fun _ -> [| Rng.uniform rng (-1.) 1. |]) in
        let y = Array.map (fun xi -> if xi.(0) > 0.0 then 1 else -1) x in
        let m = Svc.train ~c:1.0 ~x ~y () in
        let nsv = Flat.n_rows m.Model.sv in
        Alcotest.(check bool) "nsv <= n" true (nsv <= n);
        Alcotest.(check bool) "margin points only" true (nsv < n));
  ]

let svr_tests =
  [
    Alcotest.test_case "fits a line within epsilon" `Quick (fun () ->
        let x = Array.init 30 (fun i -> [| float_of_int i /. 10.0 |]) in
        let y = Array.map (fun xi -> (2.0 *. xi.(0)) -. 1.0) x in
        let m = Svr.train ~c:100.0 ~epsilon:0.05 ~x ~y () in
        Array.iteri
          (fun i xi ->
            Alcotest.(check bool) "within tube" true
              (Float.abs (Model.decision m xi -. y.(i)) <= 0.06))
          x);
    Alcotest.test_case "fits sin with rbf" `Quick (fun () ->
        let x = Array.init 60 (fun i -> [| float_of_int i /. 60.0 *. 6.28 |]) in
        let y = Array.map (fun xi -> sin xi.(0)) x in
        let m = Svr.train ~c:100.0 ~epsilon:0.02 ~gamma:1.0 ~x ~y () in
        let max_err =
          Array.fold_left
            (fun acc xi -> Float.max acc (Float.abs (Model.decision m xi -. sin xi.(0))))
            0.0 x
        in
        Alcotest.(check bool) "max err < 0.05" true (max_err < 0.05));
    Alcotest.test_case "classifies by sign on +-1 targets" `Quick (fun () ->
        let x = Array.init 40 (fun i -> [| float_of_int i |]) in
        let y = Array.map (fun xi -> if xi.(0) >= 20.0 then 1.0 else -1.0) x in
        let m = Svr.train ~c:10.0 ~epsilon:0.1 ~gamma:0.01 ~x ~y () in
        let errs =
          Array.fold_left
            (fun acc xi ->
              let truth = if xi.(0) >= 20.0 then 1 else -1 in
              if Model.classify m xi <> truth then acc + 1 else acc)
            0 x
        in
        Alcotest.(check bool) "at most 2 boundary errors" true (errs <= 2));
    Alcotest.test_case "constant target stays in tube" `Quick (fun () ->
        let x = Array.init 10 (fun i -> [| float_of_int i |]) in
        let y = Array.make 10 3.0 in
        let m = Svr.train ~c:10.0 ~epsilon:0.1 ~x ~y () in
        Alcotest.(check bool) "predicts ~3" true
          (Float.abs (Model.decision m [| 4.5 |] -. 3.0) <= 0.15));
    Alcotest.test_case "rejects negative epsilon" `Quick (fun () ->
        (match Svr.train ~epsilon:(-1.0) ~x:[| [| 0. |] |] ~y:[| 0.0 |] () with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected Invalid_argument"));
  ]

let cache_tests =
  [
    Alcotest.test_case "caches and evicts" `Quick (fun () ->
        let hits = Stc_obs.Registry.counter "stc_svm_cache_hits_total" in
        let before = Stc_obs.Registry.Counter.get hits in
        let calls = ref 0 in
        let cache =
          Row_cache.create ~row_bytes:8 ~budget_bytes:(8 * 16)
            (fun i ->
              incr calls;
              [| float_of_int i |])
        in
        (* 16-row capacity; touch 3 rows twice: 3 misses, 3 hits *)
        List.iter (fun i -> ignore (Row_cache.get cache i)) [ 0; 1; 2; 0; 1; 2 ];
        Alcotest.(check int) "computed once each" 3 !calls;
        Alcotest.(check int) "hits" 3 (Stc_obs.Registry.Counter.get hits - before));
    Alcotest.test_case "eviction keeps working" `Quick (fun () ->
        let cache =
          Row_cache.create ~row_bytes:8 ~budget_bytes:(8 * 16)
            (fun i -> [| float_of_int i |])
        in
        for i = 0 to 99 do
          let r = Row_cache.get cache i in
          Alcotest.(check (float 0.0)) "value" (float_of_int i) r.(0)
        done);
  ]

(* SMO optimality spot-check: the solver's objective must beat random
   feasible points of the same dual problem. *)
let smo_optimality_tests =
  [
    Alcotest.test_case "solver beats random feasible alphas" `Quick (fun () ->
        let rng = Rng.create 31 in
        let n = 30 in
        let x = Array.init n (fun _ -> [| Rng.uniform rng (-1.) 1.; Rng.uniform rng (-1.) 1. |]) in
        let y = Array.init n (fun i -> if x.(i).(0) > 0.0 then 1.0 else -1.0) in
        let k = Kernel.rbf 1.0 in
        let q i j = y.(i) *. y.(j) *. k x.(i) x.(j) in
        let c = 5.0 in
        let problem =
          {
            Smo.size = n;
            q_row = (fun i -> Array.init n (fun j -> q i j));
            q_diag = Array.init n (fun i -> k x.(i) x.(i));
            p = Array.make n (-1.0);
            y;
            c;
          }
        in
        let sol = Smo.solve problem in
        let objective alpha =
          let acc = ref 0.0 in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              acc := !acc +. (0.5 *. alpha.(i) *. alpha.(j) *. q i j)
            done;
            acc := !acc -. alpha.(i)
          done;
          !acc
        in
        let solver_obj = objective sol.Smo.alpha in
        (* random feasible points: draw, then project y.alpha back to 0 by
           pairing a positive- and a negative-label coordinate *)
        for _ = 1 to 20 do
          let alpha = Array.init n (fun _ -> Rng.uniform rng 0.0 c) in
          (* repair the equality constraint roughly: shift along a +/- pair *)
          let dot = ref 0.0 in
          Array.iteri (fun i a -> dot := !dot +. (y.(i) *. a)) alpha;
          (* find adjustable coordinates *)
          (try
             for i = 0 to n - 1 do
               let adjust = -. !dot *. y.(i) in
               let target = alpha.(i) +. adjust in
               if target >= 0.0 && target <= c then begin
                 alpha.(i) <- target;
                 dot := 0.0;
                 raise Exit
               end
             done
           with Exit -> ());
          if Float.abs !dot < 1e-9 then
            Alcotest.(check bool) "no feasible point beats the solver" true
              (objective alpha >= solver_obj -. 1e-6)
        done);
  ]

(* Table-driven pins for the gamma heuristics: the flat-storage refactor
   must not shift them. [median_gamma] samples pairs deterministically
   (offsets < 8 or multiples of n/64), so small inputs enumerate all
   pairs and the medians below are hand-computable. *)
let gamma_tests =
  [
    Alcotest.test_case "default gamma table" `Quick (fun () ->
        List.iter
          (fun (dim, expected) ->
            check_close 0.0
              (Printf.sprintf "1/%d" dim)
              expected
              (Kernel.default_gamma ~dim))
          [ (1, 1.0); (2, 0.5); (4, 0.25); (8, 0.125); (10, 0.1) ]);
    Alcotest.test_case "default gamma rejects non-positive dim" `Quick
      (fun () ->
        Alcotest.check_raises "dim 0"
          (Invalid_argument "Kernel.default_gamma: dim must be positive")
          (fun () -> ignore (Kernel.default_gamma ~dim:0)));
    Alcotest.test_case "median gamma table" `Quick (fun () ->
        List.iter
          (fun (name, x, expected) ->
            check_close 0.0 name expected (Kernel.median_gamma x))
          [
            (* two points, one distance: ‖0−2‖² = 4, median 4, γ = 1/4 *)
            ("two points", [| [| 0.0 |]; [| 2.0 |] |], 0.25);
            (* distances {1, 4, 9} listed by offset: median 4 → 1/4 *)
            ("three points", [| [| 0.0 |]; [| 1.0 |]; [| 3.0 |] |], 0.25);
            (* distances {1,1,1,4,4,9} sorted, index 3 → 4 → 1/4 *)
            ( "four collinear",
              [| [| 0.0 |]; [| 1.0 |]; [| 2.0 |]; [| 3.0 |] |],
              0.25 );
            (* zero-distance pair is excluded: remaining {4, 4} → 1/4 *)
            ( "duplicate point excluded",
              [| [| 0.0 |]; [| 0.0 |]; [| 2.0 |] |],
              0.25 );
            (* 2-D: ‖(0,0)−(1,1)‖² = 2 → 1/2 *)
            ("two 2-D points", [| [| 0.0; 0.0 |]; [| 1.0; 1.0 |] |], 0.5);
          ]);
    Alcotest.test_case "median gamma degenerate fallbacks" `Quick (fun () ->
        (* fewer than two points: flat 1.0 *)
        check_close 0.0 "empty" 1.0 (Kernel.median_gamma [||]);
        check_close 0.0 "single" 1.0 (Kernel.median_gamma [| [| 7.0 |] |]);
        (* all points identical: no nonzero distance → default 1/dim *)
        check_close 0.0 "identical 2-D" 0.5
          (Kernel.median_gamma [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |]));
  ]

let flat_tests =
  [
    Alcotest.test_case "flat round trip and accessors" `Quick (fun () ->
        let rows = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |] in
        let fx = Flat.of_rows rows in
        Alcotest.(check int) "n" 3 (Flat.n_rows fx);
        Alcotest.(check int) "dim" 2 (Flat.dim fx);
        Alcotest.(check (array (float 0.0))) "row 1" rows.(1) (Flat.row fx 1);
        (* squared distances from row 0: 0, 8 and 32, so γ = 1/8 gives
           exponents that are exact in binary *)
        let out = Array.make 3 nan in
        Flat.rbf_row fx ~gamma:0.125 0 out;
        Alcotest.(check (array (float 0.0))) "rbf row 0"
          [| 1.0; exp (-1.0); exp (-4.0) |] out;
        check_close 0.0 "rbf decision"
          (0.5 +. 1.0 +. (2.0 *. exp (-1.0)) +. (-1.0 *. exp (-4.0)))
          (Flat.rbf_decision fx ~gamma:0.125 ~coef:[| 1.0; 2.0; -1.0 |] ~b:0.5
             [| 1.0; 2.0 |]));
    Alcotest.test_case "flat rejects ragged and bad indices" `Quick (fun () ->
        Alcotest.check_raises "ragged"
          (Invalid_argument "Flat.of_rows: ragged row 1 (1 <> 2)") (fun () ->
            ignore (Flat.of_rows [| [| 1.0; 2.0 |]; [| 3.0 |] |]));
        let fx = Flat.of_rows [| [| 1.0 |] |] in
        Alcotest.check_raises "row out of range"
          (Invalid_argument "Flat: row 1") (fun () -> ignore (Flat.row fx 1));
        Alcotest.check_raises "vec mismatch"
          (Invalid_argument "Flat: vector length 2 <> dim 1") (fun () ->
            ignore
              (Flat.rbf_decision fx ~gamma:1.0 ~coef:[| 1.0 |] ~b:0.0
                 [| 1.0; 2.0 |])));
  ]

let suites =
  [
    ("svm.kernel", kernel_tests);
    ("svm.smo", smo_tests);
    ("svm.svc", svc_tests);
    ("svm.svr", svr_tests);
    ("svm.row_cache", cache_tests);
    ("svm.smo_optimality", smo_optimality_tests);
    ("svm.gamma", gamma_tests);
    ("svm.flat", flat_tests);
  ]
