(* The shrinking gate: a shrinking SMO solve must stop at a KKT point
   of the whole problem, not only of its active set, and at the optimum
   a tighter solve reaches. The suite is on `make suites`'s required
   list, so CI fails if it stops being registered. *)

module Kernel = Stc_svm.Kernel
module Smo = Stc_svm.Smo
module Svr = Stc_svm.Svr
module Rng = Stc_numerics.Rng
module Obs = Stc_obs.Registry

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------- random dual problems ------------------------- *)

type prob = {
  n : int;
  c : float;
  problem : Smo.problem;
  q : float array array;
}

(* g_t = Σᵢ αᵢ yᵢ K(i,t), recovered through Q (Q_ti = y_t yᵢ K); the
   decision value is f_t = g_t − rho. *)
let decision_values { n; q; problem; _ } (sol : Smo.solution) =
  Array.init n (fun t ->
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. (sol.Smo.alpha.(i) *. q.(t).(i))
      done;
      (problem.Smo.y.(t) *. !acc) -. sol.Smo.rho)

let eps = 1e-5

(* Two eps-KKT points of the same dual: objectives agree to O(n·C·eps). *)
let tol p = 5.0 *. float_of_int p.n *. p.c *. eps

(* Decision values agree only to O(√(n·C·eps)): for minimisers α₁, α₂
   with objective gap g, the difference d = α₁ − α₂ has dᵀQd ≤ 2g, so
   by Cauchy–Schwarz in the Q-seminorm |(Qd)ₜ| ≤ √(Qₜₜ · 2g) — a square
   root of the suboptimality, not a multiple of it (plus a rho shift of
   the same order when the free-variable band moves). *)
let tol_decision p = 4.0 *. sqrt (float_of_int p.n *. p.c *. eps)

(* Two eps-KKT points of the same dual share their objective and, to a
   looser tolerance, their decision values; [sol] must also stay in
   its box. *)
let check_same_optimum ~what p (reference : Smo.solution)
    (sol : Smo.solution) =
  let t = tol p in
  if Float.abs (reference.Smo.objective -. sol.Smo.objective) > t then
    QCheck.Test.fail_reportf "%s objective %.17g vs reference %.17g (tol %g)"
      what sol.Smo.objective reference.Smo.objective t;
  Array.iteri
    (fun i a ->
      if a < -1e-12 || a > p.c +. 1e-12 then
        QCheck.Test.fail_reportf "%s alpha(%d) = %.17g outside [0, %g]" what i
          a p.c)
    sol.Smo.alpha;
  let fr = decision_values p reference and fs = decision_values p sol in
  let td = tol_decision p in
  Array.iteri
    (fun i r_i ->
      if Float.abs (r_i -. fs.(i)) > td *. (1.0 +. Float.abs r_i) then
        QCheck.Test.fail_reportf "%s decision f(%d) = %.17g vs reference %.17g"
          what i fs.(i) r_i)
    fr;
  true

(* The maximal-violating-pair gap (libsvm's stopping quantity),
   recomputed from scratch: gmax over the "up" set plus gmax2 over the
   "down" set of G = Qα + p. A solve that claims convergence must sit
   below the tolerance independently of its own incremental gradient. *)
let kkt_gap p (sol : Smo.solution) =
  let n = p.n in
  let a = sol.Smo.alpha and y = p.problem.Smo.y in
  let grad =
    Array.init n (fun t ->
        let acc = ref p.problem.Smo.p.(t) in
        for i = 0 to n - 1 do
          acc := !acc +. (a.(i) *. p.q.(t).(i))
        done;
        !acc)
  in
  let gmax = ref Float.neg_infinity and gmax2 = ref Float.neg_infinity in
  for t = 0 to n - 1 do
    if y.(t) = 1.0 then begin
      if a.(t) < p.c && -.grad.(t) > !gmax then gmax := -.grad.(t);
      if a.(t) > 0.0 && grad.(t) > !gmax2 then gmax2 := grad.(t)
    end
    else begin
      if a.(t) > 0.0 && grad.(t) > !gmax then gmax := grad.(t);
      if a.(t) < p.c && -.grad.(t) > !gmax2 then gmax2 := -.grad.(t)
    end
  done;
  !gmax +. !gmax2

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 9_999)

(* ------------------------------ shrinking ------------------------------ *)

let c_reconstructs = Obs.counter "stc_smo_reconstructs_total"

(* A noisy-label C-SVC dual: 150–420 points in the plane, a linear
   concept with 15–30 % of its labels flipped, so many variables end at
   C. At eps = 1e-5 nearly all of these run for thousands of iterations
   and shrink. *)
let noisy_svc seed =
  let rng = Rng.create (90_000 + seed) in
  let n = 150 + Rng.int rng 271 in
  let x =
    Array.init n (fun _ -> Array.init 2 (fun _ -> Rng.uniform rng (-1.5) 1.5))
  in
  let flip = Rng.uniform rng 0.15 0.3 in
  let y =
    Array.map
      (fun xi ->
        let label = if xi.(0) +. (0.5 *. xi.(1)) > 0.0 then 1.0 else -1.0 in
        if Rng.uniform rng 0.0 1.0 < flip then -.label else label)
      x
  in
  let c = Rng.uniform rng 2.0 10.0 in
  let kernel = Kernel.rbf (Rng.uniform rng 0.5 5.0) in
  let q =
    Array.init n (fun i ->
        Array.init n (fun j -> y.(i) *. y.(j) *. kernel x.(i) x.(j)))
  in
  let problem =
    {
      Smo.size = n;
      q_row = (fun i -> q.(i));
      q_diag = Array.init n (fun i -> q.(i).(i));
      p = Array.make n (-1.0);
      y;
      c;
    }
  in
  { n; c; problem; q }

(* An ε-SVR dual (the {!Svr} formulation: 2l variables, y = +1 for the
   first l and −1 for the second): a noisy sine on 100–200 points. *)
let noisy_svr seed =
  let rng = Rng.create (80_000 + seed) in
  let l = 100 + Rng.int rng 101 in
  let n = 2 * l in
  let x = Array.init l (fun _ -> Rng.uniform rng (-2.0) 2.0) in
  let noise = Rng.uniform rng 0.05 0.3 in
  let target =
    Array.map (fun xi -> sin (2.0 *. xi) +. Rng.uniform rng (-.noise) noise) x
  in
  let c = Rng.uniform rng 5.0 20.0 in
  let epsilon = Rng.uniform rng 0.01 0.1 in
  let kernel = Kernel.rbf (Rng.uniform rng 0.5 5.0) in
  let y = Array.init n (fun s -> if s < l then 1.0 else -1.0) in
  let base s = if s < l then s else s - l in
  let q =
    Array.init n (fun s ->
        Array.init n (fun u ->
            y.(s) *. y.(u)
            *. kernel [| x.(base s) |] [| x.(base u) |]))
  in
  let problem =
    {
      Smo.size = n;
      q_row = (fun s -> q.(s));
      q_diag = Array.init n (fun s -> q.(s).(s));
      p =
        Array.init n (fun s ->
            if s < l then epsilon -. target.(s) else epsilon +. target.(s - l));
      y;
      c;
    }
  in
  { n; c; problem; q }

(* Solves far from the default iteration cap, so each one stops at a
   KKT point; returns the solution and the gradient rebuilds it made. *)
let solve_counting ?(eps = eps) ?(max_iter = 1_000_000) p =
  let before = Obs.Counter.get c_reconstructs in
  let sol = Smo.solve ~eps ~max_iter p.problem in
  (sol, Obs.Counter.get c_reconstructs - before)

(* The three checks every shrinking solve must pass: the KKT gap
   recomputed from α alone is within eps, α stays in its box with
   yᵀα = 0 (both duals start from zero), and the optimum matches an
   eps/100 solve of the same problem. *)
let check_shrunk_solve ~what p (sol : Smo.solution) =
  let gap = kkt_gap p sol in
  if gap > eps then
    QCheck.Test.fail_reportf "%s: recomputed KKT gap %.17g > %g" what gap eps;
  let y_alpha = ref 0.0 in
  Array.iteri
    (fun i a -> y_alpha := !y_alpha +. (p.problem.Smo.y.(i) *. a))
    sol.Smo.alpha;
  if Float.abs !y_alpha > 1e-9 *. p.c then
    QCheck.Test.fail_reportf "%s: y'alpha = %.17g" what !y_alpha;
  let reference, _ = solve_counting ~eps:(eps /. 100.0) p in
  check_same_optimum ~what p reference sol

(* Each case checks the first problem from its seed on, 10,000 seeds
   apart, whose solve runs past 1,000 iterations (about one seed in
   nine stops sooner); such a solve must have shrunk, so it must have
   rebuilt the gradient. *)
let shrink_property ~name ~count gen =
  let rec long_solve seed tries =
    let p = gen seed in
    let sol, rebuilds = solve_counting p in
    if sol.Smo.iterations > 1_000 then (seed, p, sol, rebuilds)
    else if tries = 0 then
      QCheck.Test.fail_reportf "seed %d: still under 1,000 iterations" seed
    else long_solve (seed + 10_000) (tries - 1)
  in
  qtest
    (QCheck.Test.make ~count ~name seed_arb (fun seed ->
         let seed, p, sol, rebuilds = long_solve seed 20 in
         let what = Printf.sprintf "seed %d" seed in
         if rebuilds < 1 then
           QCheck.Test.fail_reportf "%s: %d iterations and no gradient rebuild"
             what sol.Smo.iterations;
         check_shrunk_solve ~what p sol))

(* Problems whose solve converges on the active set, finds a violator
   among the shrunk variables once the whole gradient is rebuilt, and
   resumes. A solve rebuilds once when it first unshrinks (gap
   10·eps) and once per final check or at a max_iter exit, so a solve
   that never resumes rebuilds at most twice: three rebuilds mean the
   final check found a violator at least once. *)
let resuming =
  [
    ("C-SVC", noisy_svc, 7);
    ("C-SVC", noisy_svc, 13);
    ("e-SVR", noisy_svr, 8);
    ("e-SVR", noisy_svr, 12);
  ]

let shrink_tests =
  [
    shrink_property ~count:12 ~name:"C-SVC: shrinking stops at the optimum"
      noisy_svc;
    shrink_property ~count:12 ~name:"e-SVR: shrinking stops at the optimum"
      noisy_svr;
    Alcotest.test_case "the final check resumes on pinned problems" `Quick
      (fun () ->
        List.iter
          (fun (kind, gen, seed) ->
            let what = Printf.sprintf "%s seed %d" kind seed in
            let p = gen seed in
            let sol, rebuilds = solve_counting p in
            if rebuilds < 3 then
              Alcotest.failf "%s: %d gradient rebuilds, expected a resume"
                what rebuilds;
            ignore (check_shrunk_solve ~what p sol : bool))
          resuming);
    Alcotest.test_case "a max_iter exit reports its own objective" `Quick
      (fun () ->
        (* stopped mid-solve with variables shrunk: the objective must be
           ½αᵀQα + pᵀα of the returned α, read off a rebuilt gradient *)
        let p = noisy_svc 7 in
        let sol, rebuilds = solve_counting ~max_iter:3_000 p in
        Alcotest.(check int) "stopped at the cap" 3_000 sol.Smo.iterations;
        Alcotest.(check bool) "rebuilt at the cap" true (rebuilds >= 1);
        let a = sol.Smo.alpha in
        let obj = ref 0.0 in
        for t = 0 to p.n - 1 do
          let qa = ref 0.0 in
          for i = 0 to p.n - 1 do
            qa := !qa +. (p.q.(t).(i) *. a.(i))
          done;
          obj := !obj +. (a.(t) *. ((0.5 *. !qa) +. p.problem.Smo.p.(t)))
        done;
        let tol = 1e-9 *. (1.0 +. Float.abs !obj) in
        if Float.abs (sol.Smo.objective -. !obj) > tol then
          Alcotest.failf "objective %.17g, recomputed %.17g"
            sol.Smo.objective !obj);
    Alcotest.test_case "a 2,000-variable e-SVR solve rebuilds the gradient"
      `Quick (fun () ->
        let rng = Rng.create 2_000 in
        let x = Array.init 1_000 (fun _ -> [| Rng.uniform rng (-2.0) 2.0 |]) in
        let y =
          Array.map (fun xi -> sin (2.0 *. xi.(0)) +. Rng.uniform rng (-0.2) 0.2) x
        in
        let c = 10.0 in
        let before = Obs.Counter.get c_reconstructs in
        let m = Svr.train ~c ~gamma:1.0 ~x ~y () in
        let rebuilds = Obs.Counter.get c_reconstructs - before in
        if rebuilds < 1 then
          Alcotest.fail "stc_smo_reconstructs_total did not move: nothing shrank";
        match Stc_qa.Oracle.dual_feasible ~c m with
        | Ok () -> ()
        | Error e -> Alcotest.failf "model infeasible: %s" e);
  ]

let suites = [ ("svm_equiv.shrink", shrink_tests) ]
