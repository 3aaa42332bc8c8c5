(* Unit and property tests for the stc_numerics substrate. *)

module Vec = Stc_numerics.Vec
module Mat = Stc_numerics.Mat
module Lu = Stc_numerics.Lu
module Cmat = Stc_numerics.Cmat
module Rng = Stc_numerics.Rng
module Stats = Stc_numerics.Stats
module Ode = Stc_numerics.Ode
module Roots = Stc_numerics.Roots
module Interp = Stc_numerics.Interp

let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------- Vec ------------------------------ *)

let vec_tests =
  [
    Alcotest.test_case "dot" `Quick (fun () ->
        check_float "dot" 32.0 (Vec.dot [| 1.; 2.; 3. |] [| 4.; 5.; 6. |]));
    Alcotest.test_case "add/sub/scale" `Quick (fun () ->
        let x = [| 1.; 2. |] and y = [| 3.; 5. |] in
        Alcotest.(check (array (float 1e-12))) "add" [| 4.; 7. |] (Vec.add x y);
        Alcotest.(check (array (float 1e-12))) "sub" [| -2.; -3. |] (Vec.sub x y);
        Alcotest.(check (array (float 1e-12))) "scale" [| 2.; 4. |] (Vec.scale 2.0 x));
    Alcotest.test_case "axpy in place" `Quick (fun () ->
        let y = [| 1.; 1. |] in
        Vec.axpy 2.0 [| 3.; 4. |] y;
        Alcotest.(check (array (float 1e-12))) "axpy" [| 7.; 9. |] y);
    Alcotest.test_case "norms" `Quick (fun () ->
        check_float "norm2" 5.0 (Vec.norm2 [| 3.; 4. |]);
        check_float "norm_inf" 4.0 (Vec.norm_inf [| 3.; -4. |]);
        check_float "empty inf" 0.0 (Vec.norm_inf [||]));
    Alcotest.test_case "dim mismatch rejected" `Quick (fun () ->
        Alcotest.check_raises "add" (Invalid_argument "Vec.add: dimension mismatch (2 vs 3)")
          (fun () -> ignore (Vec.add [| 1.; 2. |] [| 1.; 2.; 3. |])));
    Alcotest.test_case "max_index" `Quick (fun () ->
        Alcotest.(check int) "max" 1 (Vec.max_index [| 1.; 9.; 3. |]));
    qtest
      (QCheck.Test.make ~name:"dist2 = |x-y|^2" ~count:200
         QCheck.(pair (array_of_size (Gen.return 5) (float_range (-100.) 100.))
                   (array_of_size (Gen.return 5) (float_range (-100.) 100.)))
         (fun (x, y) ->
           let d = Vec.dist2 x y in
           let s = Vec.sub x y in
           Float.abs (d -. Vec.dot s s) <= 1e-6 *. (1.0 +. Float.abs d)));
    qtest
      (QCheck.Test.make ~name:"Cauchy-Schwarz" ~count:200
         QCheck.(pair (array_of_size (Gen.return 6) (float_range (-10.) 10.))
                   (array_of_size (Gen.return 6) (float_range (-10.) 10.)))
         (fun (x, y) ->
           Float.abs (Vec.dot x y) <= (Vec.norm2 x *. Vec.norm2 y) +. 1e-9));
  ]

(* ----------------------------- Mat / Lu --------------------------- *)

let random_matrix rng n =
  Mat.init n n (fun i j ->
      let base = Rng.uniform rng (-1.0) 1.0 in
      (* diagonal dominance keeps the system comfortably nonsingular *)
      if i = j then base +. 10.0 else base)

let mat_tests =
  [
    Alcotest.test_case "identity mul" `Quick (fun () ->
        let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
        let p = Mat.mul (Mat.identity 2) a in
        Alcotest.(check (float 1e-12)) "00" 1.0 (Mat.get p 0 0);
        Alcotest.(check (float 1e-12)) "11" 4.0 (Mat.get p 1 1));
    Alcotest.test_case "transpose involution" `Quick (fun () ->
        let a = Mat.of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
        let tt = Mat.transpose (Mat.transpose a) in
        Alcotest.(check (float 1e-12)) "entry" 6.0 (Mat.get tt 1 2);
        Alcotest.(check (pair int int)) "dims" (2, 3) (Mat.dims tt));
    Alcotest.test_case "mul_vec" `Quick (fun () ->
        let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
        Alcotest.(check (array (float 1e-12))) "Ax" [| 5.; 11. |]
          (Mat.mul_vec a [| 1.; 2. |]));
    Alcotest.test_case "lu solves 3x3" `Quick (fun () ->
        let a = Mat.of_rows [| [| 2.; 1.; 1. |]; [| 1.; 3.; 2. |]; [| 1.; 0.; 0. |] |] in
        let x = Lu.solve_system a [| 4.; 5.; 6. |] in
        (* from row 3: x0 = 6 *)
        check_close 1e-9 "x0" 6.0 x.(0));
    Alcotest.test_case "lu det" `Quick (fun () ->
        let a = Mat.of_rows [| [| 2.; 0. |]; [| 0.; 3. |] |] in
        check_close 1e-9 "det" 6.0 (Lu.det (Lu.factor a)));
    Alcotest.test_case "singular raises" `Quick (fun () ->
        let a = Mat.of_rows [| [| 1.; 2. |]; [| 2.; 4. |] |] in
        (match Lu.factor a with
         | exception Lu.Singular _ -> ()
         | _ -> Alcotest.fail "expected Singular"));
    Alcotest.test_case "least squares fits line" `Quick (fun () ->
        (* y = 2x + 1 on 4 points *)
        let a = Mat.of_rows [| [| 1.; 0. |]; [| 1.; 1. |]; [| 1.; 2. |]; [| 1.; 3. |] |] in
        let x = Lu.least_squares a [| 1.; 3.; 5.; 7. |] in
        check_close 1e-9 "intercept" 1.0 x.(0);
        check_close 1e-9 "slope" 2.0 x.(1));
    qtest
      (QCheck.Test.make ~name:"lu: A (A^-1 b) = b" ~count:50
         QCheck.(int_range 0 100000)
         (fun seed ->
           let rng = Rng.create seed in
           let n = 2 + Rng.int rng 9 in
           let a = random_matrix rng n in
           let b = Array.init n (fun _ -> Rng.uniform rng (-5.0) 5.0) in
           let x = Lu.solve_system a b in
           let r = Vec.sub (Mat.mul_vec a x) b in
           Vec.norm_inf r <= 1e-8));
  ]

(* ------------------------------ Cmat ------------------------------ *)

let complex_close msg a b =
  Alcotest.(check (float 1e-9)) (msg ^ ".re") a.Complex.re b.Complex.re;
  Alcotest.(check (float 1e-9)) (msg ^ ".im") a.Complex.im b.Complex.im

(* (G + jωC) x over complex [x], for residuals. *)
let complex_mul_vec g c omega x =
  let n, _ = Mat.dims g in
  Array.init n (fun i ->
      let acc = ref Complex.zero in
      for j = 0 to n - 1 do
        let a = { Complex.re = Mat.get g i j; im = omega *. Mat.get c i j } in
        acc := Complex.add !acc (Complex.mul a x.(j))
      done;
      !acc)

(* [Cmat.solve] on a boxed right-hand side, the solution boxed *)
let cmat_solve g c ~omega b =
  let n = Array.length b in
  let xr = Array.map (fun z -> z.Complex.re) b and xi = Array.map (fun z -> z.Complex.im) b in
  Cmat.solve (Cmat.buffers n) g c ~omega xr xi;
  Array.init n (fun i -> { Complex.re = xr.(i); im = xi.(i) })

let cmat_tests =
  [
    Alcotest.test_case "complex solve 2x2" `Quick (fun () ->
        (* [[1+j, 2], [0, j]] x = [5+j, 2j]  ->  x = [1, 2]; the zero
           below the diagonal needs no elimination *)
        let g = Mat.of_rows [| [| 1.0; 2.0 |]; [| 0.0; 0.0 |] |] in
        let c = Mat.of_rows [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
        let x =
          cmat_solve g c ~omega:1.0
            [| { Complex.re = 5.0; im = 1.0 }; { Complex.re = 0.0; im = 2.0 } |]
        in
        complex_close "x0" Complex.one x.(0);
        complex_close "x1" { Complex.re = 2.0; im = 0.0 } x.(1));
    Alcotest.test_case "combine embeds g + jwc" `Quick (fun () ->
        (* (1 + j·3·2) x = 1 + 6j only for x = 1 *)
        let g = Mat.of_rows [| [| 1.0 |] |] and c = Mat.of_rows [| [| 2.0 |] |] in
        let x = cmat_solve g c ~omega:3.0 [| { Complex.re = 1.0; im = 6.0 } |] in
        complex_close "x" Complex.one x.(0));
    qtest
      (QCheck.Test.make ~name:"cmat residual" ~count:30
         QCheck.(int_range 0 100000)
         (fun seed ->
           let rng = Rng.create seed in
           let n = 2 + Rng.int rng 5 in
           let omega = Rng.uniform rng 0.5 2.0 in
           let g =
             Mat.init n n (fun i j ->
                 let re = Rng.uniform rng (-1.0) 1.0 in
                 if i = j then re +. 8.0 else re)
           in
           let c = Mat.init n n (fun _ _ -> Rng.uniform rng (-1.0) 1.0) in
           let b =
             Array.init n (fun _ ->
                 { Complex.re = Rng.uniform rng (-2.0) 2.0;
                   im = Rng.uniform rng (-2.0) 2.0 })
           in
           let x = cmat_solve g c ~omega b in
           let r = complex_mul_vec g c omega x in
           Array.for_all2
             (fun ri bi -> Complex.norm (Complex.sub ri bi) <= 1e-8)
             r b));
  ]

(* ------------------------------- Rng ------------------------------ *)

let rng_tests =
  [
    Alcotest.test_case "deterministic from seed" `Quick (fun () ->
        let a = Rng.create 42 and b = Rng.create 42 in
        for _ = 1 to 100 do
          Alcotest.(check (float 0.0)) "same stream" (Rng.float a) (Rng.float b)
        done);
    Alcotest.test_case "split decorrelates" `Quick (fun () ->
        let a = Rng.create 42 in
        let b = Rng.split a in
        let xa = Rng.float a and xb = Rng.float b in
        Alcotest.(check bool) "different" true (xa <> xb));
    Alcotest.test_case "uniform bounds" `Quick (fun () ->
        let rng = Rng.create 1 in
        for _ = 1 to 1000 do
          let x = Rng.uniform rng 2.0 3.0 in
          Alcotest.(check bool) "in range" true (x >= 2.0 && x < 3.0)
        done);
    Alcotest.test_case "normal moments" `Quick (fun () ->
        let rng = Rng.create 7 in
        let xs = Array.init 20000 (fun _ -> Rng.normal rng) in
        check_close 0.05 "mean" 0.0 (Stats.mean xs);
        check_close 0.05 "sd" 1.0 (Stats.stddev xs));
    Alcotest.test_case "int bounds and coverage" `Quick (fun () ->
        let rng = Rng.create 3 in
        let seen = Array.make 5 false in
        for _ = 1 to 1000 do
          let k = Rng.int rng 5 in
          Alcotest.(check bool) "bound" true (k >= 0 && k < 5);
          seen.(k) <- true
        done;
        Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen));
    Alcotest.test_case "shuffle is permutation" `Quick (fun () ->
        let rng = Rng.create 5 in
        let a = Array.init 50 (fun i -> i) in
        Rng.shuffle rng a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted);
  ]

(* ------------------------------ Stats ----------------------------- *)

let stats_tests =
  [
    Alcotest.test_case "mean/variance" `Quick (fun () ->
        let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
        check_float "mean" 5.0 (Stats.mean xs);
        check_close 1e-9 "variance" (32.0 /. 7.0) (Stats.variance xs));
    Alcotest.test_case "quantiles" `Quick (fun () ->
        let xs = [| 1.; 2.; 3.; 4.; 5. |] in
        check_float "median" 3.0 (Stats.median xs);
        check_float "q0" 1.0 (Stats.quantile xs 0.0);
        check_float "q1" 5.0 (Stats.quantile xs 1.0);
        check_float "q25" 2.0 (Stats.quantile xs 0.25));
    Alcotest.test_case "quantile pins: interpolation and duplicates" `Quick
      (fun () ->
        check_float "median unsorted" 2.0 (Stats.median [| 3.; 1.; 2. |]);
        check_float "even-length median" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
        check_float "q75 interpolates" 3.25
          (Stats.quantile [| 1.; 2.; 3.; 4. |] 0.75);
        check_float "duplicates" 5.0 (Stats.median [| 5.; 5.; 5.; 5.; 1. |]);
        check_float "singleton" 7.0 (Stats.quantile [| 7.0 |] 0.99));
    Alcotest.test_case "quantile adversarial inputs" `Quick (fun () ->
        (* Float.compare gives a deterministic total order: NaNs sort
           first, so quantiles over the non-NaN tail stay finite *)
        check_float "median skips the leading nan" 0.75
          (Stats.median [| Float.nan; 1.0; 2.0; 0.5 |]);
        check_float "q1 with a nan present" 2.0
          (Stats.quantile [| Float.nan; 2.0; 1.0 |] 1.0);
        check_float "infinities at the extremes do not disturb" 3.0
          (Stats.median [| Float.infinity; 2.0; Float.neg_infinity; 4.0 |]);
        check_float "negative zero does not disturb" 0.0
          (Stats.median [| -0.0; 0.0; 0.0 |]);
        Alcotest.(check bool)
          "all-nan median is nan" true
          (Float.is_nan (Stats.median [| Float.nan; Float.nan |])));
    Alcotest.test_case "correlation of linear data" `Quick (fun () ->
        let xs = [| 1.; 2.; 3.; 4. |] in
        let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
        check_close 1e-9 "corr" 1.0 (Stats.correlation xs ys);
        let yneg = Array.map (fun x -> -.x) xs in
        check_close 1e-9 "anticorr" (-1.0) (Stats.correlation xs yneg));
    Alcotest.test_case "constant column correlation is 0" `Quick (fun () ->
        check_float "corr" 0.0 (Stats.correlation [| 1.; 1.; 1. |] [| 1.; 2.; 3. |]));
    Alcotest.test_case "histogram clamps outliers" `Quick (fun () ->
        (* bins are [0,0.5) and [0.5,1): 0.5 and 0.6 land in the second *)
        let h = Stats.histogram [| -10.; 0.45; 0.6; 99. |] ~bins:2 ~lo:0.0 ~hi:1.0 in
        Alcotest.(check (array int)) "counts" [| 2; 2 |] h);
    qtest
      (QCheck.Test.make ~name:"quantile monotone in q" ~count:100
         QCheck.(array_of_size (Gen.int_range 2 40) (float_range (-50.) 50.))
         (fun xs ->
           QCheck.assume (Array.length xs >= 2);
           let q1 = Stats.quantile xs 0.3 and q2 = Stats.quantile xs 0.7 in
           q1 <= q2 +. 1e-12));
  ]

(* ---------------------------- Ode/Roots --------------------------- *)

let ode_tests =
  [
    Alcotest.test_case "rk4 exponential decay" `Quick (fun () ->
        let f _ y = [| -.y.(0) |] in
        let final = Ode.integrate_final f ~t0:0.0 ~t1:1.0 ~dt:0.01 ~y0:[| 1.0 |] in
        check_close 1e-6 "e^-1" (exp (-1.0)) final.(0));
    Alcotest.test_case "rk4 harmonic oscillator conserves energy" `Quick (fun () ->
        let f _ y = [| y.(1); -.y.(0) |] in
        let final = Ode.integrate_final f ~t0:0.0 ~t1:(2.0 *. Float.pi) ~dt:0.001
                      ~y0:[| 1.0; 0.0 |]
        in
        check_close 1e-5 "x back to 1" 1.0 final.(0);
        check_close 1e-5 "v back to 0" 0.0 final.(1));
    Alcotest.test_case "trajectory includes endpoints" `Quick (fun () ->
        let f _ _ = [| 1.0 |] in
        let traj = Ode.integrate f ~t0:0.0 ~t1:0.35 ~dt:0.1 ~y0:[| 0.0 |] in
        let t_last, y_last = traj.(Array.length traj - 1) in
        check_close 1e-12 "t end" 0.35 t_last;
        check_close 1e-9 "y = t" 0.35 y_last.(0));
  ]

let roots_tests =
  [
    Alcotest.test_case "bisect sqrt2" `Quick (fun () ->
        let r = Roots.bisect (fun x -> (x *. x) -. 2.0) 0.0 2.0 in
        check_close 1e-9 "sqrt2" (sqrt 2.0) r);
    Alcotest.test_case "brent sqrt2" `Quick (fun () ->
        let r = Roots.brent (fun x -> (x *. x) -. 2.0) 0.0 2.0 in
        check_close 1e-9 "sqrt2" (sqrt 2.0) r);
    Alcotest.test_case "brent transcendental" `Quick (fun () ->
        let r = Roots.brent (fun x -> cos x -. x) 0.0 1.0 in
        check_close 1e-9 "dottie" 0.7390851332151607 r);
    Alcotest.test_case "no sign change rejected" `Quick (fun () ->
        (match Roots.brent (fun x -> (x *. x) +. 1.0) 0.0 1.0 with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected Invalid_argument"));
    Alcotest.test_case "find_bracket" `Quick (fun () ->
        match Roots.find_bracket (fun x -> x -. 0.55) ~lo:0.0 ~hi:1.0 ~steps:10 with
        | Some (a, b) ->
          Alcotest.(check bool) "brackets root" true (a <= 0.55 && 0.55 <= b)
        | None -> Alcotest.fail "expected a bracket");
  ]

(* ------------------------------ Interp ---------------------------- *)

let interp_tests =
  [
    Alcotest.test_case "linear interpolation" `Quick (fun () ->
        let pts = [| (0.0, 0.0); (1.0, 10.0) |] in
        check_float "mid" 5.0 (Interp.linear pts 0.5);
        check_float "clamp lo" 0.0 (Interp.linear pts (-1.0));
        check_float "clamp hi" 10.0 (Interp.linear pts 2.0));
    Alcotest.test_case "crossing detection" `Quick (fun () ->
        let pts = [| (0.0, 0.0); (1.0, 2.0); (2.0, 0.0) |] in
        (match Interp.crossing pts ~level:1.0 ~direction:`Rising with
         | Some t -> check_float "rising" 0.5 t
         | None -> Alcotest.fail "no rising crossing");
        (match Interp.crossing pts ~level:1.0 ~direction:`Falling with
         | Some t -> check_float "falling" 1.5 t
         | None -> Alcotest.fail "no falling crossing");
        Alcotest.(check int) "both" 2
          (List.length (Interp.crossings pts ~level:1.0 ~direction:`Any)));
    Alcotest.test_case "linspace/logspace" `Quick (fun () ->
        let xs = Interp.linspace 0.0 1.0 5 in
        check_float "second" 0.25 xs.(1);
        let ls = Interp.logspace 1.0 1000.0 4 in
        check_close 1e-9 "log step" 10.0 ls.(1));
  ]

(* Properties over randomly generated instances (the deterministic unit
   tests above pin specific values; these pin laws). *)
let close a b = Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs b)

let property_tests =
  [
    qtest
      (QCheck.Test.make ~name:"lu solves diagonally dominant systems" ~count:100
         QCheck.(pair (int_range 1 8) (int_range 0 10_000))
         (fun (n, seed) ->
           let rng = Rng.create ((seed * 7919) + 11) in
           let a =
             Mat.init n n (fun i j ->
                 if i = j then 0.0 else Rng.uniform rng (-1.0) 1.0)
           in
           (* strict dominance keeps the condition number small, so the
              residual bound below is honest rather than generous *)
           for i = 0 to n - 1 do
             let s = ref 0.0 in
             for j = 0 to n - 1 do
               s := !s +. Float.abs (Mat.get a i j)
             done;
             Mat.set a i i (!s +. 1.0 +. Rng.float rng)
           done;
           let b = Vec.init n (fun _ -> Rng.uniform rng (-5.0) 5.0) in
           let x = Lu.solve_system a b in
           let r = Vec.sub (Mat.mul_vec a x) b in
           Vec.norm_inf r <= 1e-10 *. (1.0 +. Vec.norm_inf b)));
    qtest
      (QCheck.Test.make ~name:"stats mean/variance match naive two-pass"
         ~count:200
         QCheck.(
           array_of_size (Gen.int_range 2 50) (float_range (-100.0) 100.0))
         (fun xs ->
           let n = float_of_int (Array.length xs) in
           let m = Array.fold_left ( +. ) 0.0 xs /. n in
           let v =
             Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
             /. (n -. 1.0)
           in
           close (Stats.mean xs) m && close (Stats.variance xs) v));
    qtest
      (QCheck.Test.make ~name:"rng split streams are deterministic" ~count:100
         QCheck.(pair (int_range 0 100_000) (int_range 2 5))
         (fun (seed, n_splits) ->
           let draw () =
             let root = Rng.create seed in
             let streams = Array.init n_splits (fun _ -> Rng.split root) in
             ( Array.map
                 (fun s -> Array.init 8 (fun _ -> Rng.uint64 s))
                 streams,
               Array.init 4 (fun _ -> Rng.uint64 root) )
           in
           let a = draw () and b = draw () in
           (* replaying the seed reproduces every sub-stream AND leaves
              the parent at the same point; sibling streams differ *)
           a = b && fst a |> fun streams -> streams.(0) <> streams.(1)));
  ]

let suites =
  [
    ("numerics.vec", vec_tests);
    ("numerics.mat_lu", mat_tests);
    ("numerics.cmat", cmat_tests);
    ("numerics.rng", rng_tests);
    ("numerics.stats", stats_tests);
    ("numerics.ode", ode_tests);
    ("numerics.roots", roots_tests);
    ("numerics.interp_poly", interp_tests);
    ("numerics.properties", property_tests);
  ]
