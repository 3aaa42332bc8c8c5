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
    iterations: the system matrix (stamped, then factored in place),
    its right-hand side, the LU row permutation and the linear step's
    solution. It belongs to the call, never to the shared {!Mna.t}. *)

val workspace : Mna.t -> workspace

val newton :
  ?companions:(Stc_numerics.Mat.t -> Stc_numerics.Vec.t -> unit) ->
  options ->
  Mna.t ->
  workspace ->
  time:float ->
  gmin:float ->
  source_scale:float ->
  inductors:Mna.inductor_treatment ->
  x0:Stc_numerics.Vec.t ->
  Stc_numerics.Vec.t option
(** One damped Newton solve from [x0] at fixed [gmin] and source scale:
    each iteration stamps the system with {!Mna.stamp}, lets
    [companions] add to the stamped matrix and right-hand side (the
    transient engine's capacitor companions; nothing by default),
    factors in place and clamps the update to [max_step]. Returns a
    fresh solution, or [None] on a singular matrix, a non-finite
    iterate or [max_iter] iterations without convergence. *)

val solve : ?options:options -> ?x0:Stc_numerics.Vec.t -> Mna.t ->
  Stc_numerics.Vec.t
(** Operating point at [time = 0]. Tries plain Newton from [x0] (zeros
    by default), then gmin stepping, then source stepping. Raises
    [No_convergence] if all fail. *)

val solve_at : ?options:options -> ?x0:Stc_numerics.Vec.t -> time:float ->
  Mna.t -> Stc_numerics.Vec.t
(** Operating point with time-dependent sources frozen at [time];
    used by the transient engine for its initial condition. *)

val sweep :
  ?options:options ->
  Mna.t ->
  source:string ->
  values:float array ->
  (float * Stc_numerics.Vec.t) array
(** DC transfer-curve analysis: re-solves the operating point for each
    value of the named DC voltage source, using the previous solution
    as the Newton starting point (source-value continuation). Raises
    [Not_found] if [source] does not name a voltage source,
    [Invalid_argument] if its waveform is not DC. *)
