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

val solve_one : Mna.t -> op:Stc_numerics.Vec.t -> freq:float -> Complex.t array
(** Single-frequency convenience; adds one to [stc_ac_points_total]. *)
