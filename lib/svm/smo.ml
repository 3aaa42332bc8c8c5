(* Port of the libsvm Solver (Fan, Chen & Lin, JMLR 2005): first-order
   selection of i (maximal violating), second-order selection of j, and
   shrinking (Joachims 1999; libsvm's do_shrinking). *)

type problem = {
  size : int;
  q_row : int -> float array;
  q_diag : float array;
  p : float array;
  y : float array;
  c : float;
}

type solution = {
  alpha : float array;
  rho : float;
  objective : float;
  iterations : int;
}

let tau = 1e-12

let m_solves = Stc_obs.Registry.counter "stc_smo_solves_total"
let m_iterations = Stc_obs.Registry.counter "stc_smo_iterations_total"
let m_reconstructs = Stc_obs.Registry.counter "stc_smo_reconstructs_total"

let solve ?(eps = 1e-3) ?max_iter prob =
  let n = prob.size in
  assert (Array.length prob.p = n);
  assert (Array.length prob.y = n);
  Array.iter (fun yi -> assert (yi = 1.0 || yi = -1.0)) prob.y;
  let max_iter =
    match max_iter with Some m -> m | None -> Stdlib.max 10_000 (10 * n)
  in
  let y = prob.y and c = prob.c and q_diag = prob.q_diag in
  (* every row is scanned with unsafe accesses below, so the length is
     checked once per fetch instead of once per element *)
  let fetch_row i =
    let r = prob.q_row i in
    if Array.length r < n then
      invalid_arg "Smo.solve: q_row shorter than the problem size";
    r
  in
  (* α starts at 0, so the gradient G = Qα + p starts at p, and
     G_bar_i = Σ_{j at upper bound} C·Q_ij, the part of G owed to
     variables at their upper bound, starts at 0: a shrunk variable's
     G is rebuilt from G_bar and the free variables alone *)
  let alpha = Array.make n 0.0 in
  let grad = Array.copy prob.p in
  let g_bar = Array.make n 0.0 in
  let is_upper_bound i = alpha.(i) >= c in
  let is_lower_bound i = alpha.(i) <= 0.0 in
  (* The active set, in increasing index order: every O(n) scan below
     runs over active.(0 .. n_active-1) only. Shrinking compacts it
     stably, so the scans visit the surviving variables in the order a
     full scan would, and rows keep their index space. *)
  let active = Array.init n Fun.id and n_active = ref n in
  (* working-set selection; returns None when the KKT conditions hold
     on the active set. The O(n) scans below are the hottest loops in
     the solver, so they use unsafe accesses with loop-invariant loads
     hoisted, and the first-order scan for i is fused into the
     gradient-update loop (one pass instead of two) — the
     floating-point operation order, comparisons and traversal order
     are exactly the separate-pass ones. *)
  let gmax = ref Float.neg_infinity and gmax_idx = ref (-1) in
  let scan_max () =
    gmax := Float.neg_infinity;
    gmax_idx := -1;
    for k = 0 to !n_active - 1 do
      let t = Array.unsafe_get active k in
      let gt = Array.unsafe_get grad t in
      if Array.unsafe_get y t = 1.0 then begin
        if Array.unsafe_get alpha t < c && -.gt >= !gmax then begin
          gmax := -.gt;
          gmax_idx := t
        end
      end
      else if Array.unsafe_get alpha t > 0.0 && gt >= !gmax then begin
        gmax := gt;
        gmax_idx := t
      end
    done
  in
  (* second-order choice of j given the current (gmax, gmax_idx) *)
  let select_working_set () =
    let i = !gmax_idx in
    if i < 0 then None
    else begin
      let qi = fetch_row i in
      let gmax_v = !gmax in
      let qd_i = Array.unsafe_get q_diag i in
      let two_y_i = 2.0 *. Array.unsafe_get y i in
      let gmax2 = ref Float.neg_infinity in
      let obj_min = ref Float.infinity and gmin_idx = ref (-1) in
      for k = 0 to !n_active - 1 do
        let t = Array.unsafe_get active k in
        let gt = Array.unsafe_get grad t in
        if Array.unsafe_get y t = 1.0 then begin
          if Array.unsafe_get alpha t > 0.0 then begin
            let grad_diff = gmax_v +. gt in
            if gt >= !gmax2 then gmax2 := gt;
            if grad_diff > 0.0 then begin
              let quad =
                qd_i
                +. Array.unsafe_get q_diag t
                -. (two_y_i *. Array.unsafe_get qi t)
              in
              let quad = if quad > 0.0 then quad else tau in
              let obj = -.(grad_diff *. grad_diff) /. quad in
              if obj <= !obj_min then begin
                obj_min := obj;
                gmin_idx := t
              end
            end
          end
        end
        else if Array.unsafe_get alpha t < c then begin
          let grad_diff = gmax_v -. gt in
          if -.gt >= !gmax2 then gmax2 := -.gt;
          if grad_diff > 0.0 then begin
            let quad =
              qd_i
              +. Array.unsafe_get q_diag t
              +. (two_y_i *. Array.unsafe_get qi t)
            in
            let quad = if quad > 0.0 then quad else tau in
            let obj = -.(grad_diff *. grad_diff) /. quad in
            if obj <= !obj_min then begin
              obj_min := obj;
              gmin_idx := t
            end
          end
        end
      done;
      if !gmax +. !gmax2 < eps || !gmin_idx < 0 then None
      else Some (i, !gmin_idx)
    end
  in
  (* Rebuild G for every shrunk variable as p + G_bar + Σ_{free j} α_j
     Q_j; free variables are never shrunk, so the sum runs over the
     active set. Then every variable is active again. *)
  let reconstruct () =
    if !n_active < n then begin
      Stc_obs.Registry.Counter.incr m_reconstructs;
      let shrunk = Array.make (n - !n_active) 0 in
      let k = ref 0 and s = ref 0 in
      for t = 0 to n - 1 do
        if !k < !n_active && active.(!k) = t then incr k
        else begin
          shrunk.(!s) <- t;
          incr s;
          grad.(t) <- g_bar.(t) +. prob.p.(t)
        end
      done;
      for k = 0 to !n_active - 1 do
        let j = active.(k) in
        if not (is_upper_bound j || is_lower_bound j) then begin
          let qj = fetch_row j and aj = alpha.(j) in
          for s = 0 to Array.length shrunk - 1 do
            let t = Array.unsafe_get shrunk s in
            Array.unsafe_set grad t
              (Array.unsafe_get grad t +. (aj *. Array.unsafe_get qj t))
          done
        end
      done;
      for t = 0 to n - 1 do
        active.(t) <- t
      done;
      n_active := n
    end
  in
  (* A variable at a bound that cannot take part in a violating pair
     while the maximal violations stay below (gmax1, gmax2). *)
  let be_shrunk t gmax1 gmax2 =
    let gt = grad.(t) in
    if is_upper_bound t then
      if y.(t) = 1.0 then -.gt > gmax1 else -.gt > gmax2
    else if is_lower_bound t then
      if y.(t) = 1.0 then gt > gmax2 else gt > gmax1
    else false
  in
  (* libsvm's do_shrinking: gmax1 over the "up" set and gmax2 over the
     "down" set of the active variables; the first time their gap
     falls to 10·eps every variable is brought back once, with its
     gradient rebuilt, before the bounded ones are dropped again *)
  let unshrunk = ref false in
  let do_shrinking () =
    let gmax1 = ref Float.neg_infinity and gmax2 = ref Float.neg_infinity in
    for k = 0 to !n_active - 1 do
      let t = active.(k) in
      let gt = grad.(t) in
      let up = not (is_upper_bound t) and down = not (is_lower_bound t) in
      if y.(t) = 1.0 then begin
        if up && -.gt >= !gmax1 then gmax1 := -.gt;
        if down && gt >= !gmax2 then gmax2 := gt
      end
      else begin
        if up && -.gt >= !gmax2 then gmax2 := -.gt;
        if down && gt >= !gmax1 then gmax1 := gt
      end
    done;
    if (not !unshrunk) && !gmax1 +. !gmax2 <= 10.0 *. eps then begin
      unshrunk := true;
      reconstruct ()
    end;
    let kept = ref 0 in
    for k = 0 to !n_active - 1 do
      let t = active.(k) in
      if not (be_shrunk t !gmax1 !gmax2) then begin
        active.(!kept) <- t;
        incr kept
      end
    done;
    n_active := !kept
  in
  (* G_bar += d·Q_v when variable v reaches (d = C) or leaves (d = −C)
     its upper bound *)
  let add_to_g_bar d qv =
    for t = 0 to n - 1 do
      Array.unsafe_set g_bar t
        (Array.unsafe_get g_bar t +. (d *. Array.unsafe_get qv t))
    done
  in
  let iterations = ref 0 in
  let shrink_every = Stdlib.min n 1000 in
  let counter = ref (shrink_every + 1) in
  (* the next working set, shrinking first every [shrink_every]
     iterations. When the active set is optimal, the whole gradient is
     rebuilt and every variable checked: a violator among the shrunk
     ones resumes the solve, which shrinks again at the next
     iteration. *)
  let next_working_set () =
    decr counter;
    if !counter = 0 then begin
      counter := shrink_every;
      do_shrinking ();
      scan_max ()
    end;
    match select_working_set () with
    | None when !n_active < n ->
      reconstruct ();
      scan_max ();
      let ws = select_working_set () in
      if Option.is_some ws then counter := 1;
      ws
    | ws -> ws
  in
  scan_max ();
  let rec loop () =
    if !iterations >= max_iter then ()
    else
      match next_working_set () with
      | None -> ()
      | Some (i, j) ->
        incr iterations;
        let qi = fetch_row i and qj = fetch_row j in
        let old_ai = alpha.(i) and old_aj = alpha.(j) in
        if prob.y.(i) <> prob.y.(j) then begin
          let quad =
            prob.q_diag.(i) +. prob.q_diag.(j) +. (2.0 *. qi.(j))
          in
          let quad = if quad > 0.0 then quad else tau in
          let delta = (-.grad.(i) -. grad.(j)) /. quad in
          let diff = alpha.(i) -. alpha.(j) in
          alpha.(i) <- alpha.(i) +. delta;
          alpha.(j) <- alpha.(j) +. delta;
          if diff > 0.0 then begin
            if alpha.(j) < 0.0 then begin
              alpha.(j) <- 0.0;
              alpha.(i) <- diff
            end
          end
          else if alpha.(i) < 0.0 then begin
            alpha.(i) <- 0.0;
            alpha.(j) <- -.diff
          end;
          if diff > 0.0 then begin
            if alpha.(i) > c then begin
              alpha.(i) <- c;
              alpha.(j) <- c -. diff
            end
          end
          else if alpha.(j) > c then begin
            alpha.(j) <- c;
            alpha.(i) <- c +. diff
          end
        end
        else begin
          let quad =
            prob.q_diag.(i) +. prob.q_diag.(j) -. (2.0 *. qi.(j))
          in
          let quad = if quad > 0.0 then quad else tau in
          let delta = (grad.(i) -. grad.(j)) /. quad in
          let sum = alpha.(i) +. alpha.(j) in
          alpha.(i) <- alpha.(i) -. delta;
          alpha.(j) <- alpha.(j) +. delta;
          if sum > c then begin
            if alpha.(i) > c then begin
              alpha.(i) <- c;
              alpha.(j) <- sum -. c
            end
          end
          else if alpha.(j) < 0.0 then begin
            alpha.(j) <- 0.0;
            alpha.(i) <- sum
          end;
          if sum > c then begin
            if alpha.(j) > c then begin
              alpha.(j) <- c;
              alpha.(i) <- sum -. c
            end
          end
          else if alpha.(i) < 0.0 then begin
            alpha.(i) <- 0.0;
            alpha.(j) <- sum
          end
        end;
        let dai = alpha.(i) -. old_ai and daj = alpha.(j) -. old_aj in
        if dai <> 0.0 || daj <> 0.0 then begin
          (* fused gradient update + first-order scan for the next i:
             alphas are already final, so the bound tests below see
             exactly what a separate [scan_max] pass would *)
          gmax := Float.neg_infinity;
          gmax_idx := -1;
          for k = 0 to !n_active - 1 do
            let t = Array.unsafe_get active k in
            let gt =
              Array.unsafe_get grad t
              +. (Array.unsafe_get qi t *. dai)
              +. (Array.unsafe_get qj t *. daj)
            in
            Array.unsafe_set grad t gt;
            if Array.unsafe_get y t = 1.0 then begin
              if Array.unsafe_get alpha t < c && -.gt >= !gmax then begin
                gmax := -.gt;
                gmax_idx := t
              end
            end
            else if Array.unsafe_get alpha t > 0.0 && gt >= !gmax then begin
              gmax := gt;
              gmax_idx := t
            end
          done
        end
        else scan_max ();
        if (old_ai >= c) <> (alpha.(i) >= c) then
          add_to_g_bar (if alpha.(i) >= c then c else -.c) qi;
        if (old_aj >= c) <> (alpha.(j) >= c) then
          add_to_g_bar (if alpha.(j) >= c then c else -.c) qj;
        loop ()
  in
  loop ();
  (* a max_iter exit can leave variables shrunk: rho and the objective
     below read every gradient entry *)
  reconstruct ();
  (* rho as in libsvm: average gradient over free variables, or the
     midpoint of the feasibility interval when none are free *)
  let ub = ref Float.infinity and lb = ref Float.neg_infinity in
  let sum_free = ref 0.0 and n_free = ref 0 in
  for t = 0 to n - 1 do
    let yg = prob.y.(t) *. grad.(t) in
    if is_upper_bound t then begin
      if prob.y.(t) = -1.0 then ub := Float.min !ub yg
      else lb := Float.max !lb yg
    end
    else if is_lower_bound t then begin
      if prob.y.(t) = 1.0 then ub := Float.min !ub yg
      else lb := Float.max !lb yg
    end
    else begin
      incr n_free;
      sum_free := !sum_free +. yg
    end
  done;
  let rho =
    if !n_free > 0 then !sum_free /. float_of_int !n_free
    else (!ub +. !lb) /. 2.0
  in
  let objective =
    let acc = ref 0.0 in
    for t = 0 to n - 1 do
      acc := !acc +. (alpha.(t) *. (grad.(t) +. prob.p.(t)))
    done;
    !acc /. 2.0
  in
  Stc_obs.Registry.Counter.incr m_solves;
  Stc_obs.Registry.Counter.add m_iterations !iterations;
  { alpha; rho; objective; iterations = !iterations }
