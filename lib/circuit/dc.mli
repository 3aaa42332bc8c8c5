(** DC operating-point analysis: damped Newton–Raphson with gmin and
    source-stepping continuation fallbacks. *)

type options = {
  max_iter : int;          (** Newton iterations per attempt (default 150) *)
  tol : float;             (** convergence on |Δx|∞ (default 1e-9) *)
  gmin : float;            (** baseline leak conductance (default 1e-12) *)
  max_step : float;        (** Newton update clamp in volts (default 0.5) *)
}

val default_options : options

exception No_convergence of string

type workspace
(** The storage one analysis call reuses across all of its Newton
    iterations: the stamped system and its right-hand side, the block
    of the {!Mna.free} unknowns gathered from it (factored in place)
    with its own right-hand side, the LU row permutation and the linear
    step's solution. It belongs to the call, never to the shared
    {!Mna.t}. *)

val workspace : Mna.t -> workspace

val count_iterations : workspace -> unit
(** Adds the Newton iterations run on the workspace since the last call
    to [stc_newton_iterations_total]. An analysis calls it once, when it
    ends, so that domains do not contend on the counter per iteration;
    {!solve_at} does so itself. *)

val newton :
  companions:(Stc_numerics.Mat.t -> Stc_numerics.Vec.t -> unit) ->
  options ->
  Mna.t ->
  workspace ->
  time:float ->
  gmin:float ->
  source_scale:float ->
  Stc_numerics.Vec.t ->
  bool
(** [newton opts sys ws ~time ~gmin ~source_scale x] runs one damped
    Newton solve at fixed [gmin] and source scale, in place: it starts
    from [x] and overwrites it with each iterate. Each iteration stamps
    the system with {!Mna.stamp} and lets [companions] add to the
    stamped matrix and right-hand side (the transient engine's
    capacitor and inductor companions). It then factors only the
    {!Mna.free} unknowns: each node a {!Mna.grounded_sources} entry
    pins takes the value its source's branch row fixes (the source's
    value at [time], times [source_scale]), that node's column moves to
    the right-hand side, and after the solve the source's branch
    current is recovered from the node's KCL row. The linear step so
    holds every unknown, and the update to it is clamped to
    [max_step]. The workspace tallies each
    iteration for {!count_iterations}. Returns [true] once the update
    is below [tol], with the solution in [x]; [false] on a singular
    matrix, a non-finite iterate or [max_iter] iterations without
    convergence, leaving the last iterate in [x]. A caller that needs
    its start again keeps a copy. Allocates nothing beyond what
    {!Mna.stamp} allocates: the value of a pulse source on an edge, which
    {!Wave.value} returns boxed. *)

val solve : ?options:options -> ?x0:Stc_numerics.Vec.t -> Mna.t ->
  Stc_numerics.Vec.t
(** Operating point at [time = 0]. Tries plain Newton from [x0] (zeros
    by default), then gmin stepping from [x0] again, then source
    stepping from zeros; each attempt iterates in place on its own copy
    of its start, so [x0] is never modified. When it
    ends, it adds its iterations to [stc_newton_iterations_total], one
    to [stc_dc_solves_total], and one to [stc_dc_gmin_stepping_total]
    and to [stc_dc_source_stepping_total] if it took that fallback,
    once per call so that domains do not contend on the counters.
    Raises [No_convergence] if all fail. *)

val solve_at : ?options:options -> ?x0:Stc_numerics.Vec.t -> time:float ->
  Mna.t -> Stc_numerics.Vec.t
(** Operating point with time-dependent sources frozen at [time];
    used by the transient engine for its initial condition. Counts as
    {!solve} does. *)
