module Vec = Stc_numerics.Vec
module Mat = Stc_numerics.Mat

type cap = { cp : int; cn : int; value : float }

(* One element's resistive stamp with its unknowns resolved to indices
   (-1 = ground). Capacitors have none: their transient companions and
   AC susceptances come from [caps] and [ac_c]. *)
type stamp =
  | Conductance of { p : int; n : int; g : float }
  | Inductor of { p : int; n : int; br : int; l : float }
  | Vsource of { p : int; n : int; br : int; wave : Wave.t }
  | Isource of { p : int; n : int; wave : Wave.t }
  | Vcvs of { p : int; n : int; cp : int; cn : int; br : int; gain : float }
  | Vccs of { p : int; n : int; cp : int; cn : int; gm : float }
  | Mosfet of { d : int; g : int; s : int; model : Mosfet.params; w : float; l : float }

(* Everything here is read-only once [build] returns, so one [t] can be
   shared by analyses running on several domains. *)
type t = {
  netlist : Netlist.t;
  node_of_name : (string, int) Hashtbl.t;
  branch_of_name : (string, int) Hashtbl.t;
  n_nodes : int;
  size : int;
  program : stamp array;       (* resistive stamps, in element order *)
  caps : cap array;            (* transient capacitances *)
  ac_c : Mat.t;                (* AC capacitance/inductance matrix *)
  ac_b : Complex.t array;      (* AC source magnitudes *)
}

let needs_branch = function
  | Netlist.Vsource _ | Netlist.Vcvs _ | Netlist.Inductor _ -> true
  | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Isource _
  | Netlist.Vccs _ | Netlist.Mosfet _ ->
    false

let compile_stamp ~node ~branch = function
  | Netlist.Resistor { p; n; r; _ } ->
    Some (Conductance { p = node p; n = node n; g = 1.0 /. r })
  | Netlist.Capacitor _ -> None
  | Netlist.Inductor { name; p; n; l } ->
    Some (Inductor { p = node p; n = node n; br = branch name; l })
  | Netlist.Vsource { name; p; n; wave; _ } ->
    Some (Vsource { p = node p; n = node n; br = branch name; wave })
  | Netlist.Isource { p; n; wave; _ } -> Some (Isource { p = node p; n = node n; wave })
  | Netlist.Vcvs { name; p; n; cp; cn; gain } ->
    Some
      (Vcvs
         { p = node p; n = node n; cp = node cp; cn = node cn; br = branch name; gain })
  | Netlist.Vccs { p; n; cp; cn; gm; _ } ->
    Some (Vccs { p = node p; n = node n; cp = node cp; cn = node cn; gm })
  | Netlist.Mosfet { d; g; s; model; w; l; _ } ->
    Some (Mosfet { d = node d; g = node g; s = node s; model; w; l })

(* Explicit capacitors plus MOSFET cgs/cgd/cdb. A MOSFET lists its three
   in the order cdb, cgd, cgs, which the transient stamps keep. *)
let compile_caps ~node elements =
  let out = ref [] in
  List.iter
    (fun e ->
      match e with
      | Netlist.Capacitor { p; n; c; _ } ->
        out := { cp = node p; cn = node n; value = c } :: !out
      | Netlist.Mosfet { d; g; s; model; w; l; _ } ->
        let id = node d and ig = node g and is = node s in
        out :=
          { cp = ig; cn = is; value = Mosfet.cgs model ~w ~l }
          :: { cp = ig; cn = id; value = Mosfet.cgd model ~w ~l }
          :: { cp = id; cn = -1; value = Mosfet.cdb model ~w ~l }
          :: !out
      | Netlist.Resistor _ | Netlist.Inductor _ | Netlist.Vsource _
      | Netlist.Isource _ | Netlist.Vcvs _ | Netlist.Vccs _ ->
        ())
    elements;
  Array.of_list (List.rev !out)

(* The reactive half of the small-signal system, which does not depend
   on the operating point: C (capacitances, and -L on inductor branch
   rows) and the AC source vector. *)
let compile_ac ~node ~branch ~size elements =
  let c = Mat.create size size 0.0 in
  let cadd i j v = if i >= 0 && j >= 0 then Mat.add_to c i j v in
  let stamp_c2 p n cv =
    cadd p p cv;
    cadd n n cv;
    cadd p n (-.cv);
    cadd n p (-.cv)
  in
  let b = Array.make size Complex.zero in
  List.iter
    (fun e ->
      match e with
      | Netlist.Capacitor { p; n; c = cv; _ } -> stamp_c2 (node p) (node n) cv
      | Netlist.Inductor { name; l; _ } ->
        let br = branch name in
        cadd br br (-.l)
      | Netlist.Vsource { name; ac; _ } ->
        if ac <> 0.0 then b.(branch name) <- { Complex.re = ac; im = 0.0 }
      | Netlist.Isource { p; n; ac; _ } ->
        if ac <> 0.0 then begin
          let ip = node p and inn = node n in
          if ip >= 0 then b.(ip) <- Complex.sub b.(ip) { Complex.re = ac; im = 0.0 };
          if inn >= 0 then b.(inn) <- Complex.add b.(inn) { Complex.re = ac; im = 0.0 }
        end
      | Netlist.Mosfet { d; g; s; model; w; l; _ } ->
        let id = node d and ig = node g and is = node s in
        stamp_c2 ig is (Mosfet.cgs model ~w ~l);
        stamp_c2 ig id (Mosfet.cgd model ~w ~l);
        cadd id id (Mosfet.cdb model ~w ~l)
      | Netlist.Resistor _ | Netlist.Vcvs _ | Netlist.Vccs _ -> ())
    elements;
  (c, b)

let build netlist =
  (match Netlist.validate netlist with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Mna.build: " ^ msg));
  let elements = netlist.Netlist.elements in
  let node_of_name = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace node_of_name n i) (Netlist.nodes netlist);
  let n_nodes = Hashtbl.length node_of_name in
  let branch_of_name = Hashtbl.create 8 in
  let next = ref n_nodes in
  List.iter
    (fun e ->
      if needs_branch e then begin
        Hashtbl.replace branch_of_name (Netlist.element_name e) !next;
        incr next
      end)
    elements;
  let size = !next in
  let node name = if Netlist.is_ground name then -1 else Hashtbl.find node_of_name name in
  let branch name = Hashtbl.find branch_of_name name in
  let ac_c, ac_b = compile_ac ~node ~branch ~size elements in
  {
    netlist;
    node_of_name;
    branch_of_name;
    n_nodes;
    size;
    program = Array.of_list (List.filter_map (compile_stamp ~node ~branch) elements);
    caps = compile_caps ~node elements;
    ac_c;
    ac_b;
  }

let size t = t.size

let netlist t = t.netlist

let node_index t name =
  if Netlist.is_ground name then -1
  else
    match Hashtbl.find_opt t.node_of_name name with
    | Some i -> i
    | None -> raise Not_found

let node_voltage t x name =
  let i = node_index t name in
  if i < 0 then 0.0 else x.(i)

let branch_current t x name =
  match Hashtbl.find_opt t.branch_of_name name with
  | Some i -> x.(i)
  | None -> raise Not_found

let capacitances t = Array.copy t.caps

type inductor_treatment =
  | Short
  | Companion of { h : float; prev : Vec.t }

(* Accumulate [v] into the n×n row-major [g] at (i, j), skipping ground
   rows/columns. *)
let[@inline] gadd g n i j v =
  if i >= 0 && j >= 0 then begin
    let k = (i * n) + j in
    g.(k) <- g.(k) +. v
  end

let[@inline] badd b i v = if i >= 0 then b.(i) <- b.(i) +. v

let[@inline] stamp_conductance g n p q value =
  gadd g n p p value;
  gadd g n q q value;
  gadd g n p q (-.value);
  gadd g n q p (-.value)

(* VCCS: current [gm * (v cp - v cn)] flowing p -> q through the element. *)
let[@inline] stamp_vccs g n p q cp cn gm =
  gadd g n p cp gm;
  gadd g n p cn (-.gm);
  gadd g n q cp (-.gm);
  gadd g n q cn gm

(* The KCL and branch-equation entries shared by every voltage-defined
   element: the branch current leaves p and enters q. *)
let[@inline] stamp_branch g n p q br =
  gadd g n p br 1.0;
  gadd g n q br (-1.0);
  gadd g n br p 1.0;
  gadd g n br q (-1.0)

let stamp t ~g ~b ~x ~mos ~time ~gmin ~source_scale ~inductors =
  let n = t.size in
  if g.Mat.rows <> n || g.Mat.cols <> n || Array.length b <> n || Array.length x <> n
  then invalid_arg "Mna.stamp: dimension mismatch";
  let g = g.Mat.data in
  Array.fill g 0 (n * n) 0.0;
  Array.fill b 0 n 0.0;
  for k = 0 to Array.length t.program - 1 do
    match t.program.(k) with
    | Conductance { p; n = q; g = value } -> stamp_conductance g n p q value
    | Inductor { p; n = q; br; l } ->
      stamp_branch g n p q br;
      (match inductors with
       | Short -> ()
       | Companion { h; prev } ->
         (* backward Euler: v = (L/h) (i - i_prev) *)
         gadd g n br br (-.(l /. h));
         badd b br (-.(l /. h *. prev.(br))))
    | Vsource { p; n = q; br; wave } ->
      stamp_branch g n p q br;
      badd b br (source_scale *. Wave.value wave time)
    | Isource { p; n = q; wave } ->
      let i = source_scale *. Wave.value wave time in
      badd b p (-.i);
      badd b q i
    | Vcvs { p; n = q; cp; cn; br; gain } ->
      stamp_branch g n p q br;
      gadd g n br cp (-.gain);
      gadd g n br cn gain
    | Vccs { p; n = q; cp; cn; gm } -> stamp_vccs g n p q cp cn gm
    | Mosfet { d; g = gate; s; model; w; l } ->
      let vd = if d >= 0 then x.(d) else 0.0 in
      let vg = if gate >= 0 then x.(gate) else 0.0 in
      let vs = if s >= 0 then x.(s) else 0.0 in
      mos.Mosfet.vgs <- vg -. vs;
      mos.Mosfet.vds <- vd -. vs;
      Mosfet.linearise model ~w ~l mos;
      (* linearised drain current: i = ids0 + gm*(vgs - vgs0) + gds*(vds - vds0) *)
      let ieq = mos.ids -. (mos.gm *. mos.vgs) -. (mos.gds *. mos.vds) in
      stamp_vccs g n d s gate s mos.gm;
      stamp_conductance g n d s mos.gds;
      badd b d (-.ieq);
      badd b s ieq
  done;
  (* gmin from every node voltage unknown to ground *)
  if gmin > 0.0 then
    for i = 0 to t.n_nodes - 1 do
      gadd g n i i gmin
    done

let ac_matrices t ~op =
  let n = t.size in
  (* the resistive small-signal part is the DC stamp with sources off;
     inductors are shorted there and get their -L term in C *)
  let g = Mat.create n n 0.0 in
  stamp t ~g ~b:(Vec.create n 0.0) ~x:op ~mos:(Mosfet.op ()) ~time:0.0 ~gmin:1e-12
    ~source_scale:0.0 ~inductors:Short;
  (g, Mat.copy t.ac_c, Array.copy t.ac_b)
