let opposite_signs fa fb = (fa <= 0.0 && fb >= 0.0) || (fa >= 0.0 && fb <= 0.0)

let bisect ?(tol = 1e-12) ?(max_iter = 200) f a b =
  let fa = f a and fb = f b in
  if not (opposite_signs fa fb) then
    invalid_arg "Roots.bisect: f(a) and f(b) must have opposite signs";
  let rec loop a fa b iter =
    let m = 0.5 *. (a +. b) in
    if b -. a < tol || iter >= max_iter then m
    else begin
      let fm = f m in
      if fm = 0.0 then m
      else if opposite_signs fa fm then loop a fa m (iter + 1)
      else loop m fm b (iter + 1)
    end
  in
  if a <= b then loop a fa b 0 else loop b fb a 0

(* Brent's method as in Numerical Recipes; falls back to bisection when the
   interpolation step is not contracting fast enough. *)
let brent ?(tol = 1e-12) ?(max_iter = 200) f a b =
  let fa = f a and fb = f b in
  if not (opposite_signs fa fb) then
    invalid_arg "Roots.brent: f(a) and f(b) must have opposite signs";
  let a = ref a and b = ref b and fa = ref fa and fb = ref fb in
  if Float.abs !fa < Float.abs !fb then begin
    let t = !a in a := !b; b := t;
    let t = !fa in fa := !fb; fb := t
  end;
  let c = ref !a and fc = ref !fa in
  let d = ref (!b -. !a) and e = ref (!b -. !a) in
  let result = ref !b in
  (try
     for _ = 1 to max_iter do
       if (!fb > 0.0 && !fc > 0.0) || (!fb < 0.0 && !fc < 0.0) then begin
         c := !a; fc := !fa; d := !b -. !a; e := !d
       end;
       if Float.abs !fc < Float.abs !fb then begin
         a := !b; b := !c; c := !a;
         fa := !fb; fb := !fc; fc := !fa
       end;
       let tol1 = (2.0 *. epsilon_float *. Float.abs !b) +. (0.5 *. tol) in
       let xm = 0.5 *. (!c -. !b) in
       if Float.abs xm <= tol1 || !fb = 0.0 then begin
         result := !b;
         raise Exit
       end;
       if Float.abs !e >= tol1 && Float.abs !fa > Float.abs !fb then begin
         let s = !fb /. !fa in
         let p, q =
           if !a = !c then
             let p = 2.0 *. xm *. s in
             (p, 1.0 -. s)
           else begin
             let q = !fa /. !fc and r = !fb /. !fc in
             let p = s *. ((2.0 *. xm *. q *. (q -. r))
                           -. ((!b -. !a) *. (r -. 1.0))) in
             (p, (q -. 1.0) *. (r -. 1.0) *. (s -. 1.0))
           end
         in
         let p, q = if p > 0.0 then (p, -.q) else (-.p, q) in
         let min1 = (3.0 *. xm *. q) -. Float.abs (tol1 *. q) in
         let min2 = Float.abs (!e *. q) in
         if 2.0 *. p < Float.min min1 min2 then begin
           e := !d;
           d := p /. q
         end else begin
           d := xm;
           e := !d
         end
       end else begin
         d := xm;
         e := !d
       end;
       a := !b;
       fa := !fb;
       if Float.abs !d > tol1 then b := !b +. !d
       else b := !b +. (if xm >= 0.0 then tol1 else -.tol1);
       fb := f !b
     done;
     result := !b
   with Exit -> ());
  !result

(* The grid is the scan's: x_0 = lo and x_i = lo + h·i, so its last
   point is computed, not [hi]. When f lo and f x_steps have strict and
   opposite signs, the cell is found by halving: [a] keeps f lo's
   strict sign and [b] does not, so the two ends of the last cell have
   opposite signs, and when f changes sign once on the grid that cell
   is the first one the scan would stop at. Otherwise the grid is
   scanned from [lo]. *)
let find_bracket f ~lo ~hi ~steps =
  if steps <= 0 then invalid_arg "Roots.find_bracket: steps must be positive";
  let h = (hi -. lo) /. float_of_int steps in
  let x i = if i = 0 then lo else lo +. (h *. float_of_int i) in
  let f_lo = f lo and f_last = f (x steps) in
  if (f_lo < 0.0 && f_last > 0.0) || (f_lo > 0.0 && f_last < 0.0) then begin
    let rec halve a b =
      if b - a = 1 then Some (x a, x b)
      else begin
        let m = (a + b) / 2 in
        if opposite_signs f_lo (f (x m)) then halve a m else halve m b
      end
    in
    halve 0 steps
  end
  else begin
    let rec scan i prev_x prev_f =
      if i > steps then None
      else begin
        let xi = x i in
        let fx = if i = steps then f_last else f xi in
        if opposite_signs prev_f fx then Some (prev_x, xi)
        else scan (i + 1) xi fx
      end
    in
    scan 1 lo f_lo
  end
