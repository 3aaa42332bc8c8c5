(** Small-signal AC analysis around a DC operating point. *)

type point = {
  freq : float;                      (** Hz *)
  solution : Complex.t array;        (** phasor node/branch unknowns *)
}

val sweep :
  Mna.t -> op:Stc_numerics.Vec.t -> freqs:float array -> point array
(** Solves [(G + jωC) x = b] at each frequency, and adds the number of
    frequencies to [stc_ac_points_total]. *)

val node_response : Mna.t -> point array -> Netlist.node -> (float * Complex.t) array
(** Extracts the phasor at a node across the sweep as (freq, phasor). *)

val magnitude : Complex.t -> float
val db : Complex.t -> float
(** 20·log10 |z|; -inf for 0. *)

val phase_deg : Complex.t -> float

type solver
(** One bench's small-signal system [(G + jωC) x = b] around one
    operating point, built once and solved at as many frequencies as a
    measurement needs. It is never modified, so one may be shared. *)

val prepare : Mna.t -> op:Stc_numerics.Vec.t -> solver
(** [prepare sys ~op] builds G, C and b with {!Mna.ac_matrices}. *)

val solve : solver -> freq:float -> Complex.t array
(** The phasor solution at [freq] Hz; adds one to
    [stc_ac_points_total]. The same bits as {!solve_one} on the
    solver's system and operating point. *)

val solve_one : Mna.t -> op:Stc_numerics.Vec.t -> freq:float -> Complex.t array
(** Single-frequency convenience: {!prepare} then {!solve}. *)
