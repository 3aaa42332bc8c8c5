(** Small-signal AC analysis around a DC operating point. *)

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
