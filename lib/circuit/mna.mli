(** Modified nodal analysis: unknown numbering and element stamping.

    Unknowns are the non-ground node voltages followed by one branch
    current per voltage-defined element (voltage sources and
    inductors). Sign conventions:

    - KCL rows read "sum of currents leaving the node = injections".
    - A branch current is the current flowing from the element's [p]
      terminal through the element to its [n] terminal; for a supply
      [Vsource p:"vdd" n:"0"] the current *delivered* to the circuit is
      the negative of the branch current.

    A voltage source from a node to ground pins that node: the node's
    voltage is the source's value (at the analysis time, times the
    source scale), so no solve has to find it. {!Dc.newton} (and with
    it {!Tran.run}) and {!Ac.solve} factor only the {!free} unknowns,
    with the pinned nodes' columns moved to the right-hand side, and
    recover each such source's branch current from its node's KCL row
    afterwards. Their solution vectors still hold every unknown, in the
    numbering above. *)

type t
(** A netlist compiled once: unknowns numbered, and every element turned
    into a stamp whose matrix entries are flat offsets into the
    row-major system matrix (resistor conductances and MOSFET gains
    precomputed, the AC capacitance matrix and source vector
    assembled). A [t] is
    immutable after {!build}, so analyses on several domains may share
    one; each analysis call brings its own matrix storage. *)

val build : Netlist.t -> t
(** Numbers the unknowns and compiles the stamps. Raises
    [Invalid_argument] if the netlist fails {!Netlist.validate}. *)

val size : t -> int
(** Total number of unknowns. *)

val node_count : t -> int
(** Number of node-voltage unknowns: they are unknowns [0] to
    [node_count - 1], and the branch currents follow them. *)

val netlist : t -> Netlist.t

val node_index : t -> Netlist.node -> int
(** Index of a node voltage unknown; -1 for ground. Raises [Not_found]
    for unknown node names. *)

val node_voltage : t -> Stc_numerics.Vec.t -> Netlist.node -> float
(** Reads a node voltage out of a solution vector (0 for ground). *)

val branch_current : t -> Stc_numerics.Vec.t -> string -> float
(** Branch current of a voltage-defined element, by element name. *)

type pin = {
  node : int;    (** the pinned node's voltage unknown *)
  branch : int;  (** the source's branch-current unknown *)
}
(** A voltage source with one terminal at ground and the other at
    [node]. Its branch row reads [±x.(node) = value], so the node's
    voltage is the source's value, negated when the source's [p]
    terminal is the grounded one. *)

val grounded_sources : t -> pin array
(** Every voltage source from a node to ground, in element order,
    except one whose node an earlier such source already pins: that
    one stays an ordinary branch, and the system is singular, as it is
    when both are kept. A fresh array on each call. *)

val free : t -> int array
(** The unknowns no {!grounded_sources} entry fixes, ascending: every
    unknown but the pinned nodes and their sources' branches. A fresh
    array on each call. *)

type cap = {
  cp : int;
  cn : int;
  value : float;
  pp : int;  (** flat offset of (cp, cp) in the row-major G *)
  nn : int;  (** of (cn, cn) *)
  pn : int;  (** of (cp, cn) *)
  np : int;  (** of (cn, cp) *)
}
(** A (possibly device-internal) linear capacitance between two
    unknown indices (-1 = ground), with the offsets its transient
    companion adds to, -1 where a row or column is ground. *)

val capacitances : t -> cap array
(** All capacitances, merged: explicit capacitors plus MOSFET
    cgs/cgd/cdb (constant in the level-1 model), with the capacitances
    between the same two unknowns (in either orientation) summed in
    element order into one entry and a capacitance from an unknown to
    itself dropped, in the order the transient companions are stamped.
    The AC capacitance matrix of {!ac_matrices} is stamped from the
    same list. A fresh array on each call. *)

type inductor = {
  br : int;    (** the branch-current unknown *)
  brbr : int;  (** flat offset of (br, br) in the row-major G *)
  l : float;
}
(** An inductor's branch, for its transient companion: {!stamp} makes
    it a 0 V branch (its DC short), and the transient engine adds the
    backward-Euler terms at [brbr] and at row [br] of the right-hand
    side. No other stamp touches either entry. *)

val inductors : t -> inductor array
(** All inductors, in element order. A fresh array on each call. *)

val stamp :
  t ->
  g:Stc_numerics.Mat.t ->
  b:Stc_numerics.Vec.t ->
  x:Stc_numerics.Vec.t ->
  mos:Mosfet.op ->
  time:float ->
  gmin:float ->
  source_scale:float ->
  unit
(** Overwrites the caller's [g] ([size × size]) and [b] with the
    resistive (non-capacitive) part of the linearised MNA system around
    candidate solution [x]: conductances, linearised MOSFET companion
    models, independent sources evaluated at [time] and scaled by
    [source_scale] (for source-stepping homotopy), and a [gmin] leak
    from every node to ground. Inductors are 0 V branches. Each
    MOSFET is linearised in the caller's scratch [mos], so the MOSFETs
    allocate nothing. Stamps accumulate in element order, so the result
    is the same bit for bit on every call. Raises [Invalid_argument] on
    a dimension mismatch. *)

val ac_matrices :
  t -> op:Stc_numerics.Vec.t ->
  Stc_numerics.Mat.t * Stc_numerics.Mat.t * Complex.t array
(** [ac_matrices sys ~op] returns fresh [(g, c, b)] such that the
    small-signal phasor solution at angular frequency ω is
    [(g + jωc) x = b]: [g] holds conductances and MOSFET gm/gds
    linearised at the operating point [op], [c] holds capacitances and
    inductances, [b] holds the AC source magnitudes. *)
