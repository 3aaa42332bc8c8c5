(* Fixed-step RK4, the integrator behind the MEMS transient cases in
   test_mems.ml, which check the frequency-domain model against the
   time domain. Only the tests integrate ODEs. *)

module Vec = Stc_numerics.Vec

(* [f t y] returns dy/dt. *)
type derivative = float -> Vec.t -> Vec.t

let rk4_step f t y h =
  let k1 = f t y in
  let k2 = f (t +. (h /. 2.0)) (Vec.add y (Vec.scale (h /. 2.0) k1)) in
  let k3 = f (t +. (h /. 2.0)) (Vec.add y (Vec.scale (h /. 2.0) k2)) in
  let k4 = f (t +. h) (Vec.add y (Vec.scale h k3)) in
  let incr =
    Vec.add (Vec.add k1 (Vec.scale 2.0 k2)) (Vec.add (Vec.scale 2.0 k3) k4)
  in
  Vec.add y (Vec.scale (h /. 6.0) incr)

let check ~t0 ~t1 ~dt =
  if dt <= 0.0 then invalid_arg "Ode.integrate: dt must be positive";
  if t1 < t0 then invalid_arg "Ode.integrate: t1 < t0"

(* RK4 from [t0] to [t1], the last step shortened to land on [t1]; the
   trajectory, initial point included. *)
let integrate (f : derivative) ~t0 ~t1 ~dt ~y0 =
  check ~t0 ~t1 ~dt;
  let steps = int_of_float (Float.ceil ((t1 -. t0) /. dt)) in
  let out = Array.make (steps + 1) (t0, y0) in
  let t = ref t0 and y = ref y0 in
  for i = 1 to steps do
    let h = Float.min dt (t1 -. !t) in
    y := rk4_step f !t !y h;
    t := !t +. h;
    out.(i) <- (!t, !y)
  done;
  out

(* As [integrate], keeping only the final state. *)
let integrate_final (f : derivative) ~t0 ~t1 ~dt ~y0 =
  check ~t0 ~t1 ~dt;
  let t = ref t0 and y = ref y0 in
  while !t < t1 -. 1e-15 do
    let h = Float.min dt (t1 -. !t) in
    y := rk4_step f !t !y h;
    t := !t +. h
  done;
  !y
