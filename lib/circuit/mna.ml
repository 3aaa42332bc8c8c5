module Vec = Stc_numerics.Vec
module Mat = Stc_numerics.Mat

type cap = { cp : int; cn : int; value : float; pp : int; nn : int; pn : int; np : int }

type inductor = { br : int; brbr : int; l : float }

type pin = { node : int; branch : int }

(* One element's resistive stamp, compiled: every entry it adds to the
   row-major G is a flat offset, -1 where its row or column is ground,
   and every rhs entry and voltage it reads an unknown index, -1 for
   ground. The offset names say which entry: [pq] is (p, q), [brp] is
   (br, p). Capacitors have none: their transient companions and AC
   susceptances come from [caps] and [ac_c]. An inductor stamps only
   its 0 V branch, its DC short; its transient companion comes from
   [inductors] and its AC term from [ac_c]. *)
type stamp =
  | Conductance of { pp : int; qq : int; pq : int; qp : int; g : float }
  | Inductor of { pbr : int; qbr : int; brp : int; brq : int }
  | Vsource of { pbr : int; qbr : int; brp : int; brq : int; br : int; wave : Wave.t }
  | Isource of { p : int; n : int; wave : Wave.t }
  | Mosfet of {
      d : int; g : int; s : int;
      dg : int; ds : int; sg : int; ss : int; dd : int; sd : int;
      model : Mosfet.params;
      beta : float;
    }

(* Everything here is read-only once [build] returns, so one [t] can be
   shared by analyses running on several domains. *)
type t = {
  netlist : Netlist.t;
  node_of_name : (string, int) Hashtbl.t;
  branch_of_name : (string, int) Hashtbl.t;
  n_nodes : int;
  size : int;
  program : stamp array;       (* resistive stamps, in element order *)
  pins : pin array;            (* grounded sources, in element order *)
  free : int array;            (* the unknowns no pin fixes, ascending *)
  caps : cap array;            (* merged capacitances *)
  inductors : inductor array;  (* transient inductor branches *)
  ac_c : Mat.t;                (* AC capacitance/inductance matrix *)
  ac_b : Complex.t array;      (* AC source magnitudes *)
}

(* The flat offset of entry (i, j) of the row-major size × size G; -1
   when either index is ground. *)
let offset ~size i j = if i >= 0 && j >= 0 then (i * size) + j else -1

let needs_branch = function
  | Netlist.Vsource _ | Netlist.Inductor _ -> true
  | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Isource _ | Netlist.Mosfet _ ->
    false

let compile_stamp ~node ~branch ~size e =
  let at = offset ~size in
  match e with
  | Netlist.Resistor { p; n; r; _ } ->
    let p = node p and q = node n in
    Some (Conductance { pp = at p p; qq = at q q; pq = at p q; qp = at q p; g = 1.0 /. r })
  | Netlist.Capacitor _ -> None
  | Netlist.Inductor { name; p; n; _ } ->
    let p = node p and q = node n and br = branch name in
    Some (Inductor { pbr = at p br; qbr = at q br; brp = at br p; brq = at br q })
  | Netlist.Vsource { name; p; n; wave; _ } ->
    let p = node p and q = node n and br = branch name in
    Some (Vsource { pbr = at p br; qbr = at q br; brp = at br p; brq = at br q; br; wave })
  | Netlist.Isource { p; n; wave; _ } -> Some (Isource { p = node p; n = node n; wave })
  | Netlist.Mosfet { d; g; s; model; w; l; _ } ->
    let d = node d and g = node g and s = node s in
    Some
      (Mosfet
         { d; g; s; dg = at d g; ds = at d s; sg = at s g; ss = at s s; dd = at d d;
           sd = at s d; model; beta = Mosfet.beta model ~w ~l })

(* Explicit capacitors plus MOSFET cgs/cgd/cdb, merged: capacitances
   between the same two unknowns, in either orientation, are summed in
   element order into the first one's entry, which keeps its place and
   orientation, and a capacitance from an unknown to itself (the
   gate-drain capacitance of a diode-connected MOSFET) is dropped. A
   MOSFET lists its three in the order cdb, cgd, cgs. The merge runs in
   flat arrays, so that a build allocates little beyond the result. *)
let compile_caps ~node ~size elements =
  let listed =
    List.fold_left
      (fun k e ->
        match e with
        | Netlist.Capacitor _ -> k + 1
        | Netlist.Mosfet _ -> k + 3
        | Netlist.Resistor _ | Netlist.Inductor _ | Netlist.Vsource _ | Netlist.Isource _ -> k)
      0 elements
  in
  let cps = Array.make listed 0 and cns = Array.make listed 0 in
  let values = Array.make listed 0.0 and count = ref 0 in
  let add cp cn value =
    if cp <> cn then begin
      let k = ref 0 in
      while
        !k < !count
        && not ((cps.(!k) = cp && cns.(!k) = cn) || (cps.(!k) = cn && cns.(!k) = cp))
      do
        incr k
      done;
      if !k < !count then values.(!k) <- values.(!k) +. value
      else begin
        cps.(!k) <- cp;
        cns.(!k) <- cn;
        values.(!k) <- value;
        incr count
      end
    end
  in
  List.iter
    (fun e ->
      match e with
      | Netlist.Capacitor { p; n; c; _ } -> add (node p) (node n) c
      | Netlist.Mosfet { d; g; s; model; w; l; _ } ->
        let id = node d and ig = node g and is = node s in
        add id (-1) (Mosfet.cdb model ~w ~l);
        add ig id (Mosfet.cgd model ~w ~l);
        add ig is (Mosfet.cgs model ~w ~l)
      | Netlist.Resistor _ | Netlist.Inductor _ | Netlist.Vsource _ | Netlist.Isource _ ->
        ())
    elements;
  let at = offset ~size in
  Array.init !count (fun k ->
      let cp = cps.(k) and cn = cns.(k) in
      { cp; cn; value = values.(k); pp = at cp cp; nn = at cn cn; pn = at cp cn; np = at cn cp })

(* Each voltage source with one terminal at ground and the other at a
   node no earlier source pins. A second grounded source on a pinned
   node stays an ordinary branch, whose free row and column are then
   empty: the system is singular, as it is with both branches kept. *)
let compile_pins ~node ~branch elements =
  let pinned =
    List.fold_left
      (fun pinned e ->
        match e with
        | Netlist.Vsource { name; p; n; _ } ->
          let ip = node p and iq = node n in
          let pin = if iq < 0 then ip else if ip < 0 then iq else -1 in
          if pin < 0 || List.exists (fun q -> q.node = pin) pinned then pinned
          else { node = pin; branch = branch name } :: pinned
        | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Inductor _ | Netlist.Isource _
        | Netlist.Mosfet _ ->
          pinned)
      [] elements
  in
  Array.of_list (List.rev pinned)

let free_unknowns ~size pins =
  let fixed = Array.make size false in
  Array.iter
    (fun { node; branch } ->
      fixed.(node) <- true;
      fixed.(branch) <- true)
    pins;
  let free = Array.make (size - (2 * Array.length pins)) 0 and k = ref 0 in
  for i = 0 to size - 1 do
    if not fixed.(i) then begin
      free.(!k) <- i;
      incr k
    end
  done;
  free

let compile_inductors ~branch ~size elements =
  Array.of_list
    (List.filter_map
       (function
         | Netlist.Inductor { name; l; _ } ->
           let br = branch name in
           Some { br; brbr = offset ~size br br; l }
         | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Vsource _ | Netlist.Isource _
         | Netlist.Mosfet _ ->
           None)
       elements)

(* The reactive half of the small-signal system, which does not depend
   on the operating point: C (the merged capacitances, and -L on
   inductor branch rows) and the AC source vector. *)
let compile_ac ~node ~branch ~size ~caps elements =
  let c = Mat.create size size 0.0 in
  let cadd i j v = if i >= 0 && j >= 0 then Mat.add_to c i j v in
  Array.iter
    (fun { cp; cn; value; _ } ->
      cadd cp cp value;
      cadd cn cn value;
      cadd cp cn (-.value);
      cadd cn cp (-.value))
    caps;
  let b = Array.make size Complex.zero in
  List.iter
    (fun e ->
      match e with
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
      | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Mosfet _ -> ())
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
  let caps = compile_caps ~node ~size elements in
  let pins = compile_pins ~node ~branch elements in
  let ac_c, ac_b = compile_ac ~node ~branch ~size ~caps elements in
  {
    netlist;
    node_of_name;
    branch_of_name;
    n_nodes;
    size;
    program = Array.of_list (List.filter_map (compile_stamp ~node ~branch ~size) elements);
    pins;
    free = free_unknowns ~size pins;
    caps;
    inductors = compile_inductors ~branch ~size elements;
    ac_c;
    ac_b;
  }

let size t = t.size

let node_count t = t.n_nodes

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

let grounded_sources t = Array.copy t.pins

let free t = Array.copy t.free

let capacitances t = Array.copy t.caps

let inductors t = Array.copy t.inductors

(* Accumulate [v] into the row-major [g] at flat offset [o], skipping a
   ground row or column (-1). *)
let[@inline] gadd g o v = if o >= 0 then g.(o) <- g.(o) +. v

let[@inline] badd b i v = if i >= 0 then b.(i) <- b.(i) +. v

(* The KCL and branch-equation entries shared by every voltage-defined
   element: the branch current leaves p and enters q. *)
let[@inline] stamp_branch g pbr qbr brp brq =
  gadd g pbr 1.0;
  gadd g qbr (-1.0);
  gadd g brp 1.0;
  gadd g brq (-1.0)

let stamp t ~g ~b ~x ~mos ~time ~gmin ~source_scale =
  let n = t.size in
  if g.Mat.rows <> n || g.Mat.cols <> n || Array.length b <> n || Array.length x <> n
  then invalid_arg "Mna.stamp: dimension mismatch";
  let g = g.Mat.data in
  Array.fill g 0 (n * n) 0.0;
  Array.fill b 0 n 0.0;
  for k = 0 to Array.length t.program - 1 do
    match t.program.(k) with
    | Conductance { pp; qq; pq; qp; g = value } ->
      gadd g pp value;
      gadd g qq value;
      gadd g pq (-.value);
      gadd g qp (-.value)
    | Inductor { pbr; qbr; brp; brq } -> stamp_branch g pbr qbr brp brq
    | Vsource { pbr; qbr; brp; brq; br; wave } ->
      stamp_branch g pbr qbr brp brq;
      badd b br (source_scale *. Wave.value wave time)
    | Isource { p; n = q; wave } ->
      let i = source_scale *. Wave.value wave time in
      badd b p (-.i);
      badd b q i
    | Mosfet { d; g = gate; s; dg; ds; sg; ss; dd; sd; model; beta } ->
      let vd = if d >= 0 then x.(d) else 0.0 in
      let vg = if gate >= 0 then x.(gate) else 0.0 in
      let vs = if s >= 0 then x.(s) else 0.0 in
      mos.Mosfet.vgs <- vg -. vs;
      mos.Mosfet.vds <- vd -. vs;
      Mosfet.linearise model ~beta mos;
      (* linearised drain current: i = ids0 + gm*(vgs - vgs0) + gds*(vds - vds0),
         a VCCS gm from (gate, s) and a conductance gds across (d, s) *)
      let ieq = mos.ids -. (mos.gm *. mos.vgs) -. (mos.gds *. mos.vds) in
      gadd g dg mos.gm;
      gadd g ds (-.mos.gm);
      gadd g sg (-.mos.gm);
      gadd g ss mos.gm;
      gadd g dd mos.gds;
      gadd g ss mos.gds;
      gadd g ds (-.mos.gds);
      gadd g sd (-.mos.gds);
      badd b d (-.ieq);
      badd b s ieq
  done;
  (* gmin from every node voltage unknown to ground *)
  if gmin > 0.0 then
    for i = 0 to t.n_nodes - 1 do
      gadd g ((i * n) + i) gmin
    done

let ac_matrices t ~op =
  let n = t.size in
  (* the resistive small-signal part is the DC stamp with sources off;
     inductors are shorted there and get their -L term in C *)
  let g = Mat.create n n 0.0 in
  stamp t ~g ~b:(Vec.create n 0.0) ~x:op ~mos:(Mosfet.op ()) ~time:0.0 ~gmin:1e-12
    ~source_scale:0.0;
  (g, Mat.copy t.ac_c, Array.copy t.ac_b)
