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

type workspace = {
  g : Mat.t;          (* stamped, then factored in place *)
  b : Vec.t;
  perm : int array;
  x_new : Vec.t;      (* the linear step's solution *)
}

let workspace sys =
  let n = Mna.size sys in
  { g = Mat.create n n 0.0; b = Vec.create n 0.0; perm = Array.make n 0;
    x_new = Vec.create n 0.0 }

let no_companions _ _ = ()

(* One damped Newton solve at fixed gmin and source scale. Returns the
   solution or None if it fails to converge (or hits a singular matrix). *)
let newton ?(companions = no_companions) opts sys ws ~time ~gmin ~source_scale
    ~inductors ~x0 =
  let x = Vec.copy x0 in
  let x_new = ws.x_new in
  let rec iterate k =
    if k >= opts.max_iter then None
    else begin
      Mna.stamp sys ~g:ws.g ~b:ws.b ~x ~time ~gmin ~source_scale ~inductors;
      companions ws.g ws.b;
      match Lu.factor_in_place ws.g ws.perm with
      | exception Lu.Singular _ -> None
      | (_ : float) ->
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
        if not !finite then None
        else if !delta *. scale < opts.tol then Some x
        else iterate (k + 1)
    end
  in
  iterate 0

let gmin_ladder = [ 1e-3; 1e-4; 1e-6; 1e-8; 1e-10; 1e-12 ]

let source_ladder = [ 0.1; 0.25; 0.5; 0.75; 0.9; 1.0 ]

let solve_at ?(options = default_options) ?x0 ~time sys =
  let n = Mna.size sys in
  let x0 = match x0 with Some x -> x | None -> Vec.create n 0.0 in
  let ws = workspace sys in
  let newton ~gmin ~source_scale ~x0 =
    newton options sys ws ~time ~gmin ~source_scale ~inductors:Mna.Short ~x0
  in
  match newton ~gmin:options.gmin ~source_scale:1.0 ~x0 with
  | Some x -> x
  | None ->
    (* gmin stepping: solve with a heavy leak and tighten progressively *)
    let via_gmin =
      List.fold_left
        (fun acc gmin ->
          match acc with
          | None -> None
          | Some x -> newton ~gmin ~source_scale:1.0 ~x0:x)
        (Some x0) gmin_ladder
    in
    (match via_gmin with
     | Some x -> x
     | None ->
       (* source stepping from a dead circuit *)
       let via_src =
         List.fold_left
           (fun acc scale ->
             match acc with
             | None -> None
             | Some x -> newton ~gmin:options.gmin ~source_scale:scale ~x0:x)
           (Some (Vec.create n 0.0))
           source_ladder
       in
       (match via_src with
        | Some x -> x
        | None -> raise (No_convergence "DC operating point did not converge")))

let solve ?options ?x0 sys = solve_at ?options ?x0 ~time:0.0 sys

let sweep ?options sys ~source ~values =
  let netlist = Mna.netlist sys in
  (match Netlist.find netlist source with
   | Netlist.Vsource { wave = Wave.Dc _; _ } -> ()
   | Netlist.Vsource _ ->
     invalid_arg "Dc.sweep: swept source must have a DC waveform"
   | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Inductor _
   | Netlist.Isource _ | Netlist.Vcvs _ | Netlist.Vccs _ | Netlist.Mosfet _ ->
     invalid_arg "Dc.sweep: source must name a voltage source");
  let with_value v =
    let elements =
      List.map
        (fun e ->
          match e with
          | Netlist.Vsource { name; p; n; wave = _; ac } when name = source ->
            Netlist.Vsource { name; p; n; wave = Wave.Dc v; ac }
          | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Inductor _
          | Netlist.Vsource _ | Netlist.Isource _ | Netlist.Vcvs _
          | Netlist.Vccs _ | Netlist.Mosfet _ ->
            e)
        netlist.Netlist.elements
    in
    Mna.build (Netlist.of_elements elements)
  in
  let previous = ref None in
  Array.map
    (fun v ->
      let sys_v = with_value v in
      let x = solve ?options ?x0:!previous sys_v in
      previous := Some x;
      (v, x))
    values
