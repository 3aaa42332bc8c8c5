(* The warm-start/flat-storage equivalence gate, and the shrinking
   gate.

   The SMO hot path (a) seeds solves from the previous candidate's
   alphas, (b) computes kernels over contiguous flat storage and (c)
   shrinks the active set. These suites pin the contract that makes
   all three safe: warm-started solves converge to the same optimum as
   cold ones (within the KKT tolerance), a full warm-started compaction
   produces the very same stc-flow-1 bytes as a cold one on the paper's
   benches, and a shrinking solve stops at a KKT point of the whole
   problem, not only of its active set.

   All three suites are on `make suites`'s required list, so CI fails
   if one stops being registered. *)

module Kernel = Stc_svm.Kernel
module Smo = Stc_svm.Smo
module Svr = Stc_svm.Svr
module Rng = Stc_numerics.Rng
module Compaction = Stc.Compaction
module Order = Stc.Order
module Experiment = Stc.Experiment
module Flow_io = Stc_floor.Flow_io
module Obs = Stc_obs.Registry

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------- random dual problems ------------------------- *)

type prob = {
  n : int;
  c : float;
  problem : Smo.problem;
  q : float array array;
}

(* A random C-SVC dual: both classes present, RBF kernel, modest size.
   Everything is derived from the seed, so qcheck shrinking stays
   meaningful. *)
let make_problem seed =
  let rng = Rng.create (1_000 + seed) in
  let n = 8 + Rng.int rng 17 in
  let dim = 1 + Rng.int rng 3 in
  let x =
    Array.init n (fun _ ->
        Array.init dim (fun _ -> Rng.uniform rng (-1.5) 1.5))
  in
  let y = Array.init n (fun i -> if i land 1 = 0 then 1.0 else -1.0) in
  let c = Rng.uniform rng 0.5 10.0 in
  let kernel = Kernel.rbf (Rng.uniform rng 0.2 2.0) in
  let q =
    Array.init n (fun i ->
        Array.init n (fun j -> y.(i) *. y.(j) *. Kernel.eval kernel x.(i) x.(j)))
  in
  let problem =
    {
      Smo.size = n;
      q_row = (fun i -> q.(i));
      q_diag = Array.init n (fun i -> q.(i).(i));
      p = Array.make n (-1.0);
      y;
      c = Array.make n c;
    }
  in
  { n; c; problem; q }

(* Random feasible start: equal values assigned to (+,−) index pairs,
   so yᵀα = 0 holds exactly and every coordinate is inside [0, C]. *)
let random_feasible_alpha rng { n; c; _ } =
  let alpha = Array.make n 0.0 in
  let pos = ref [] and neg = ref [] in
  for i = n - 1 downto 0 do
    if i land 1 = 0 then pos := i :: !pos else neg := i :: !neg
  done;
  List.iter2
    (fun i j ->
      let v = Rng.uniform rng 0.0 c in
      alpha.(i) <- v;
      alpha.(j) <- v)
    (List.filteri (fun k _ -> k < List.length !neg) !pos)
    (List.filteri (fun k _ -> k < List.length !pos) !neg);
  alpha

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

let check_objective_and_box ?(what = "warm") p (cold : Smo.solution)
    (warm : Smo.solution) =
  let t = tol p in
  if Float.abs (cold.Smo.objective -. warm.Smo.objective) > t then
    QCheck.Test.fail_reportf "%s objective %.17g vs cold %.17g (tol %g)" what
      warm.Smo.objective cold.Smo.objective t;
  Array.iteri
    (fun i a ->
      if a < -1e-12 || a > p.c +. 1e-12 then
        QCheck.Test.fail_reportf "%s alpha(%d) = %.17g outside [0, %g]" what i
          a p.c)
    warm.Smo.alpha

let check_same_optimum ?(what = "warm") p (cold : Smo.solution)
    (warm : Smo.solution) =
  check_objective_and_box ~what p cold warm;
  let fc = decision_values p cold and fw = decision_values p warm in
  let td = tol_decision p in
  Array.iteri
    (fun i c_i ->
      if Float.abs (c_i -. fw.(i)) > td *. (1.0 +. Float.abs c_i) then
        QCheck.Test.fail_reportf "%s decision f(%d) = %.17g vs cold %.17g" what
          i fw.(i) c_i)
    fc;
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

(* Weaker than [check_same_optimum], but sound for degenerate duals:
   when Q is nearly singular (near-duplicate points, tiny gamma) the
   ε-KKT set is a long flat valley and decision values legitimately
   differ between its points, while the objective and the KKT gap are
   pinned for every member. *)
let check_reaches_optimum ?(what = "warm") p (cold : Smo.solution)
    (warm : Smo.solution) =
  check_objective_and_box ~what p cold warm;
  let gap = kkt_gap p warm in
  (* 1.5×: the solver stops on its incrementally-updated gradient,
     which drifts from the recomputed one by rounding only *)
  if gap >= 1.5 *. eps then
    QCheck.Test.fail_reportf "%s KKT gap %.17g >= %.17g" what gap (1.5 *. eps);
  true

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 9_999)

let smo_equiv_tests =
  [
    qtest
      (QCheck.Test.make ~count:40
         ~name:"warm start from the cold optimum stays at the optimum"
         seed_arb
         (fun seed ->
           let p = make_problem seed in
           let cold = Smo.solve ~eps p.problem in
           let warm = Smo.solve ~eps ~alpha0:cold.Smo.alpha p.problem in
           (* restarting at an eps-KKT point must terminate almost
              immediately — this is what makes warm starts pay *)
           if warm.Smo.iterations > cold.Smo.iterations then
             QCheck.Test.fail_reportf
               "restart took %d iterations vs %d from zero"
               warm.Smo.iterations cold.Smo.iterations;
           check_same_optimum ~what:"restart" p cold warm));
    qtest
      (QCheck.Test.make ~count:40
         ~name:"warm start from a random feasible point finds the cold optimum"
         seed_arb
         (fun seed ->
           let p = make_problem seed in
           let rng = Rng.create (77_000 + seed) in
           let cold = Smo.solve ~eps p.problem in
           let alpha0 = random_feasible_alpha rng p in
           let warm = Smo.solve ~eps ~alpha0 p.problem in
           check_reaches_optimum p cold warm));
    qtest
      (QCheck.Test.make ~count:25
         ~name:"Svr warm state reproduces the cold model's predictions"
         seed_arb
         (fun seed ->
           let rng = Rng.create (55_000 + seed) in
           let l = 12 + Rng.int rng 20 in
           let dim = 1 + Rng.int rng 3 in
           let mk_x () =
             Array.init l (fun _ ->
                 Array.init dim (fun _ -> Rng.uniform rng (-1.0) 1.0))
           in
           let labels x =
             Array.map
               (fun xi ->
                 if Array.fold_left ( +. ) 0.0 xi > 0.0 then 1.0 else -1.0)
               x
           in
           let c = 10.0 and kernel = Kernel.rbf 1.0 in
           let x1 = mk_x () in
           let x2 = mk_x () in
           (* the second problem differs in features and labels — the
              warm state must still be a legal start for it *)
           let warm = Svr.warm_state () in
           let _seeded = Svr.train ~c ~kernel ~warm ~x:x1 ~y:(labels x1) () in
           let m_warm = Svr.train ~c ~kernel ~warm ~x:x2 ~y:(labels x2) () in
           let m_cold = Svr.train ~c ~kernel ~x:x2 ~y:(labels x2) () in
           (match Stc_qa.Oracle.svr_dual_feasible ~c m_warm with
           | Ok () -> ()
           | Error e -> QCheck.Test.fail_reportf "warm model infeasible: %s" e);
           Array.iteri
             (fun i xi ->
               let pw = Svr.predict m_warm xi and pc = Svr.predict m_cold xi in
               (* both solves stop at eps-KKT (default 1e-3) points of
                  the same dual; predictions agree to O(√(n·C·eps)),
                  see [tol_decision] *)
               let t = 0.1 *. (1.0 +. Float.abs pc) in
               if Float.abs (pw -. pc) > t then
                 QCheck.Test.fail_reportf
                   "warm f(x%d) = %.17g but cold %.17g" i pw pc;
               if (pw >= 0.0) <> (pc >= 0.0) && Float.abs pc > 0.1 then
                 QCheck.Test.fail_reportf "warm flips the sign at x%d" i)
             x2;
           true));
  ]

(* ----------------- bit-identical compacted flows ----------------- *)

let c_warm_starts = Obs.counter "stc_smo_warm_starts_total"

let flow_string flow =
  match Flow_io.to_string flow with
  | Ok s -> s
  | Error e -> Alcotest.failf "Flow_io.to_string: %s" e

let check_warm_cold_flows name ?order config ~train ~test =
  let before = Obs.Counter.get c_warm_starts in
  let cold =
    Compaction.greedy ?order { config with Compaction.warm_start = false }
      ~train ~test
  in
  let mid = Obs.Counter.get c_warm_starts in
  Alcotest.(check int) (name ^ ": cold run never warm-starts") 0 (mid - before);
  let warm =
    Compaction.greedy ?order { config with Compaction.warm_start = true }
      ~train ~test
  in
  let after = Obs.Counter.get c_warm_starts in
  Alcotest.(check bool) (name ^ ": warm run used warm starts") true
    (after - mid > 0);
  (* every greedy decision identical... *)
  List.iter2
    (fun (cs : Compaction.step) (ws : Compaction.step) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: step on spec %d" name cs.Compaction.spec_index)
        cs.Compaction.spec_index ws.Compaction.spec_index;
      Alcotest.(check bool)
        (Printf.sprintf "%s: decision on spec %d" name cs.Compaction.spec_index)
        cs.Compaction.accepted ws.Compaction.accepted)
    cold.Compaction.steps warm.Compaction.steps;
  (* ...and the persisted flow bit-identical *)
  Alcotest.(check string)
    (name ^ ": stc-flow-1 bytes")
    (flow_string cold.Compaction.flow)
    (flow_string warm.Compaction.flow)

let flow_equiv_tests =
  [
    Alcotest.test_case "op-amp: warm and cold flows bit-identical" `Quick
      (fun () ->
        let train, test =
          Experiment.generate_opamp ~seed:701 ~n_train:80 ~n_test:40 ()
        in
        check_warm_cold_flows "opamp"
          ~order:(Order.Given Experiment.opamp_examination_order)
          Experiment.opamp_config ~train ~test);
    Alcotest.test_case "MEMS: warm and cold flows bit-identical" `Quick
      (fun () ->
        (* large enough that accepted candidates have non-trivial
           (nonzero-alpha) models — seeds from an all-zero model are a
           cold start and correctly don't count as warm *)
        let train, test =
          Experiment.generate_mems ~seed:702 ~n_train:400 ~n_test:200 ()
        in
        check_warm_cold_flows "mems" Experiment.mems_config ~train ~test);
  ]

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
        Array.init n (fun j -> y.(i) *. y.(j) *. Kernel.eval kernel x.(i) x.(j)))
  in
  let problem =
    {
      Smo.size = n;
      q_row = (fun i -> q.(i));
      q_diag = Array.init n (fun i -> q.(i).(i));
      p = Array.make n (-1.0);
      y;
      c = Array.make n c;
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
            *. Kernel.eval kernel [| x.(base s) |] [| x.(base u) |]))
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
      c = Array.make n c;
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
        let m = Svr.train ~c ~kernel:(Kernel.rbf 1.0) ~x ~y () in
        let rebuilds = Obs.Counter.get c_reconstructs - before in
        if rebuilds < 1 then
          Alcotest.fail "stc_smo_reconstructs_total did not move: nothing shrank";
        match Stc_qa.Oracle.svr_dual_feasible ~c m with
        | Ok () -> ()
        | Error e -> Alcotest.failf "model infeasible: %s" e);
  ]

let suites =
  [
    ("svm_equiv.smo", smo_equiv_tests); ("svm_equiv.flows", flow_equiv_tests);
    ("svm_equiv.shrink", shrink_tests);
  ]
