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
  g : Mat.t;          (* the stamped system, every unknown *)
  b : Vec.t;
  pins : Mna.pin array;
  v : Vec.t;          (* each pinned node's value *)
  free : int array;
  a : Mat.t;          (* the free block, factored in place *)
  r : Vec.t;          (* its right-hand side *)
  perm : int array;
  cols : int array;   (* the LU's column list *)
  y : Vec.t;          (* the free unknowns' solution *)
  x_new : Vec.t;      (* the linear step's solution, every unknown *)
  mos : Mosfet.op;    (* each MOSFET's operating point, while stamping *)
  mutable iterations : int;  (* Newton iterations not yet counted *)
}

let workspace sys =
  let n = Mna.size sys and pins = Mna.grounded_sources sys and free = Mna.free sys in
  let nf = Array.length free in
  { g = Mat.create n n 0.0; b = Vec.create n 0.0; pins; v = Vec.create (Array.length pins) 0.0;
    free; a = Mat.create nf nf 0.0; r = Vec.create nf 0.0; perm = Array.make nf 0;
    cols = Array.make nf 0; y = Vec.create nf 0.0; x_new = Vec.create n 0.0;
    mos = Mosfet.op (); iterations = 0 }

let count_iterations ws =
  Stc_obs.Registry.Counter.add m_iterations ws.iterations;
  ws.iterations <- 0

let no_companions _ _ = ()

(* The two helpers below load and store unchecked: the workspace's
   arrays are sized from its system when it is made, and every index
   Mna lists is below that system's size. *)

(* Gathers the free block of the stamped system into [a] and its
   right-hand side into [r], each pinned node's column moved to the
   right-hand side at the value its source's branch row fixes (that
   row's only entry is ±1, so the division is exact). *)
let condense ws =
  let n = ws.g.Mat.rows and g = ws.g.Mat.data and b = ws.b in
  let a = ws.a.Mat.data and pins = ws.pins and v = ws.v and free = ws.free in
  let nf = Array.length free and np = Array.length pins in
  for k = 0 to np - 1 do
    let { Mna.node; branch } = Array.unsafe_get pins k in
    Array.unsafe_set v k (Array.unsafe_get b branch /. Array.unsafe_get g ((branch * n) + node))
  done;
  for i = 0 to nf - 1 do
    let fi = Array.unsafe_get free i in
    let row = fi * n in
    for j = 0 to nf - 1 do
      Array.unsafe_set a ((i * nf) + j) (Array.unsafe_get g (row + Array.unsafe_get free j))
    done;
    let acc = ref (Array.unsafe_get b fi) in
    for k = 0 to np - 1 do
      let gk = Array.unsafe_get g (row + (Array.unsafe_get pins k).Mna.node) in
      if gk <> 0.0 then acc := !acc -. (gk *. Array.unsafe_get v k)
    done;
    Array.unsafe_set ws.r i !acc
  done

(* Scatters the free solution [y] into [x] and sets each pinned node to
   its value. Then it recovers each pinned source's branch current from
   its node's KCL row of the stamped system, the only row with an entry
   (±1) in that source's branch column. *)
let expand ws x =
  let n = ws.g.Mat.rows and g = ws.g.Mat.data and b = ws.b in
  let pins = ws.pins and free = ws.free and y = ws.y in
  for i = 0 to Array.length free - 1 do
    Array.unsafe_set x (Array.unsafe_get free i) (Array.unsafe_get y i)
  done;
  for k = 0 to Array.length pins - 1 do
    let { Mna.node; branch } = Array.unsafe_get pins k in
    Array.unsafe_set x node (Array.unsafe_get ws.v k);
    Array.unsafe_set x branch 0.0
  done;
  for k = 0 to Array.length pins - 1 do
    let { Mna.node; branch } = Array.unsafe_get pins k in
    let row = node * n in
    let acc = ref (Array.unsafe_get b node) in
    for j = 0 to n - 1 do
      let gj = Array.unsafe_get g (row + j) in
      if gj <> 0.0 then acc := !acc -. (gj *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x branch (!acc /. Array.unsafe_get g (row + branch))
  done

(* One damped Newton solve at fixed gmin and source scale, in place on
   [x], from iteration [k]. Returns whether it converged. A top-level
   function, so that no closure is allocated per solve. *)
let rec iterate ~companions opts sys ws ~time ~gmin ~source_scale x k =
  if k >= opts.max_iter then false
  else begin
    ws.iterations <- ws.iterations + 1;
    Mna.stamp sys ~g:ws.g ~b:ws.b ~x ~mos:ws.mos ~time ~gmin ~source_scale;
    companions ws.g ws.b;
    condense ws;
    match Lu.factor_in_place ws.a ws.perm ws.cols with
    | exception Lu.Singular _ -> false
    | (_ : int) ->
      let x_new = ws.x_new in
      Lu.solve_into ws.a ws.perm ws.r ws.y;
      expand ws x_new;
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
