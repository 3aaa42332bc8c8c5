(** Small-signal AC analysis around a DC operating point. *)

type solver
(** One bench's small-signal system [(G + jωC) x = b] around one
    operating point, built once and solved at as many frequencies as a
    measurement needs. It owns the {!Stc_numerics.Cmat.buffers} every
    point's elimination works in, so one solver serves one domain at a
    time. *)

val prepare : Mna.t -> op:Stc_numerics.Vec.t -> solver
(** [prepare sys ~op] builds G, C and b with {!Mna.ac_matrices}, then
    gathers the block of the {!Mna.free} unknowns of G and C once: each
    node a {!Mna.grounded_sources} entry pins takes its source's AC
    magnitude, and that node's columns move to the right-hand side. It
    allocates the elimination's buffers. *)

val solve : solver -> freq:float -> Complex.t array
(** The phasor solution at [freq] Hz, every unknown; adds one to
    [stc_ac_points_total]. It eliminates only the free block of
    [G + jωC], sets each pinned node to its phasor and recovers each
    such source's branch current from the node's row of [G + jωC]. The
    same bits as {!solve_one} on the solver's system and operating
    point. The elimination works in the solver's buffers, so a point
    allocates only the returned phasors and the boxed ω it passes to
    {!Stc_numerics.Cmat.solve}. *)

val solve_one : Mna.t -> op:Stc_numerics.Vec.t -> freq:float -> Complex.t array
(** Single-frequency convenience: {!prepare} then {!solve}. *)
