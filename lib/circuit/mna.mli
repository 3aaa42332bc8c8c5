(** Modified nodal analysis: unknown numbering and element stamping.

    Unknowns are the non-ground node voltages followed by one branch
    current per voltage-defined element (voltage sources, VCVS,
    inductors). Sign conventions:

    - KCL rows read "sum of currents leaving the node = injections".
    - A branch current is the current flowing from the element's [p]
      terminal through the element to its [n] terminal; for a supply
      [Vsource p:"vdd" n:"0"] the current *delivered* to the circuit is
      the negative of the branch current. *)

type t
(** A netlist compiled once: unknowns numbered, and every element turned
    into an index-resolved stamp (resistor conductances precomputed,
    the AC capacitance matrix and source vector assembled). A [t] is
    immutable after {!build}, so analyses on several domains may share
    one; each analysis call brings its own matrix storage. *)

val build : Netlist.t -> t
(** Numbers the unknowns and compiles the stamps. Raises
    [Invalid_argument] if the netlist fails {!Netlist.validate}. *)

val size : t -> int
(** Total number of unknowns. *)

val netlist : t -> Netlist.t

val node_index : t -> Netlist.node -> int
(** Index of a node voltage unknown; -1 for ground. Raises [Not_found]
    for unknown node names. *)

val node_voltage : t -> Stc_numerics.Vec.t -> Netlist.node -> float
(** Reads a node voltage out of a solution vector (0 for ground). *)

val branch_current : t -> Stc_numerics.Vec.t -> string -> float
(** Branch current of a voltage-defined element, by element name. *)

type cap = { cp : int; cn : int; value : float }
(** A (possibly device-internal) linear capacitance between two
    unknown indices (-1 = ground). *)

val capacitances : t -> cap array
(** All capacitances: explicit capacitors plus MOSFET cgs/cgd/cdb
    (constant in the level-1 model), in the order the transient
    companions are stamped. A fresh array on each call. *)

type inductor_treatment =
  | Short  (** DC: inductors are 0 V branches *)
  | Companion of { h : float; prev : Stc_numerics.Vec.t }
      (** transient backward-Euler companion over a step of [h]; the
          previous branch currents are read from the previous time
          point's solution [prev] *)

val stamp :
  t ->
  g:Stc_numerics.Mat.t ->
  b:Stc_numerics.Vec.t ->
  x:Stc_numerics.Vec.t ->
  time:float ->
  gmin:float ->
  source_scale:float ->
  inductors:inductor_treatment ->
  unit
(** Overwrites the caller's [g] ([size × size]) and [b] with the
    resistive (non-capacitive) part of the linearised MNA system around
    candidate solution [x]: conductances, linearised MOSFET companion
    models, independent sources evaluated at [time] and scaled by
    [source_scale] (for source-stepping homotopy), and a [gmin] leak
    from every node to ground. Stamps accumulate in element order, so
    the result is the same bit for bit on every call. Raises
    [Invalid_argument] on a dimension mismatch. *)

val ac_matrices :
  t -> op:Stc_numerics.Vec.t ->
  Stc_numerics.Mat.t * Stc_numerics.Mat.t * Complex.t array
(** [ac_matrices sys ~op] returns fresh [(g, c, b)] such that the
    small-signal phasor solution at angular frequency ω is
    [(g + jωc) x = b]: [g] holds conductances and MOSFET gm/gds
    linearised at the operating point [op], [c] holds capacitances and
    inductances, [b] holds the AC source magnitudes. *)
