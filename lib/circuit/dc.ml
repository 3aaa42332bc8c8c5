module Vec = Stc_numerics.Vec
module Mat = Stc_numerics.Mat
module Lu = Stc_numerics.Lu

type options = {
  max_iter : int;
  tol : float;
  gmin : float;
  max_step : float;
}

let default_options = { max_iter = 150; tol = 1e-9; gmin = 1e-12; max_step = 0.5 }

exception No_convergence of string

let m_iterations = Stc_obs.Registry.counter "stc_newton_iterations_total"
let m_solves = Stc_obs.Registry.counter "stc_dc_solves_total"
let m_gmin_stepping = Stc_obs.Registry.counter "stc_dc_gmin_stepping_total"
let m_source_stepping = Stc_obs.Registry.counter "stc_dc_source_stepping_total"

type workspace = {
  g : Mat.t;          (* stamped, then factored in place *)
  b : Vec.t;
  perm : int array;
  cols : int array;   (* the LU's column list *)
  x_new : Vec.t;      (* the linear step's solution *)
  mos : Mosfet.op;    (* each MOSFET's operating point, while stamping *)
  mutable iterations : int;  (* Newton iterations not yet counted *)
}

let workspace sys =
  let n = Mna.size sys in
  { g = Mat.create n n 0.0; b = Vec.create n 0.0; perm = Array.make n 0;
    cols = Array.make n 0; x_new = Vec.create n 0.0; mos = Mosfet.op (); iterations = 0 }

let count_iterations ws =
  Stc_obs.Registry.Counter.add m_iterations ws.iterations;
  ws.iterations <- 0

let no_companions _ _ = ()

(* One damped Newton solve at fixed gmin and source scale, in place on
   [x], from iteration [k]. Returns whether it converged. A top-level
   function, so that no closure is allocated per solve. *)
let rec iterate ~companions opts sys ws ~time ~gmin ~source_scale x k =
  if k >= opts.max_iter then false
  else begin
    ws.iterations <- ws.iterations + 1;
    Mna.stamp sys ~g:ws.g ~b:ws.b ~x ~mos:ws.mos ~time ~gmin ~source_scale;
    companions ws.g ws.b;
    match Lu.factor_in_place ws.g ws.perm ws.cols with
    | exception Lu.Singular _ -> false
    | (_ : int) ->
      let x_new = ws.x_new in
      Lu.solve_into ws.g ws.perm ws.b x_new;
      (* clamp the update to keep the square-law model in range; a NaN
         step is caught by the finiteness check below, whatever
         [delta] then holds *)
      let delta = ref 0.0 in
      for i = 0 to Vec.dim x - 1 do
        let d = Float.abs (x_new.(i) -. x.(i)) in
        if d > !delta then delta := d
      done;
      let scale = if !delta > opts.max_step then opts.max_step /. !delta else 1.0 in
      let finite = ref true in
      for i = 0 to Vec.dim x - 1 do
        let xi = x.(i) +. (scale *. (x_new.(i) -. x.(i))) in
        x.(i) <- xi;
        if not (Float.is_finite xi) then finite := false
      done;
      if not !finite then false
      else if !delta *. scale < opts.tol then true
      else iterate ~companions opts sys ws ~time ~gmin ~source_scale x (k + 1)
  end

let newton ~companions opts sys ws ~time ~gmin ~source_scale x =
  iterate ~companions opts sys ws ~time ~gmin ~source_scale x 0

let gmin_ladder = [ 1e-3; 1e-4; 1e-6; 1e-8; 1e-10; 1e-12 ]

let source_ladder = [ 0.1; 0.25; 0.5; 0.75; 0.9; 1.0 ]

let solve_at ?(options = default_options) ?x0 ~time sys =
  let n = Mna.size sys in
  let ws = workspace sys in
  (* a fresh copy of the start for each attempt that begins from it;
     each attempt's Newton solves then iterate on it in place *)
  let start () = match x0 with Some x -> Vec.copy x | None -> Vec.create n 0.0 in
  let newton ~gmin ~source_scale x =
    newton ~companions:no_companions options sys ws ~time ~gmin ~source_scale x
  in
  (* which fallbacks this solve took, counted once when it ends *)
  let gmin_stepping = ref false and source_stepping = ref false in
  let count () =
    count_iterations ws;
    Stc_obs.Registry.Counter.incr m_solves;
    if !gmin_stepping then Stc_obs.Registry.Counter.incr m_gmin_stepping;
    if !source_stepping then Stc_obs.Registry.Counter.incr m_source_stepping
  in
  Fun.protect ~finally:count @@ fun () ->
  let x = start () in
  if newton ~gmin:options.gmin ~source_scale:1.0 x then x
  else begin
    (* gmin stepping: solve with a heavy leak and tighten progressively *)
    gmin_stepping := true;
    let x = start () in
    if List.for_all (fun gmin -> newton ~gmin ~source_scale:1.0 x) gmin_ladder then x
    else begin
      (* source stepping from a dead circuit *)
      source_stepping := true;
      let x = Vec.create n 0.0 in
      if
        List.for_all
          (fun scale -> newton ~gmin:options.gmin ~source_scale:scale x)
          source_ladder
      then x
      else raise (No_convergence "DC operating point did not converge")
    end
  end

let solve ?options ?x0 sys = solve_at ?options ?x0 ~time:0.0 sys
