(** Transient analysis with Newton iteration per time point.

    Capacitors are integrated with the trapezoidal rule (accurate
    ringing / settling behaviour), one companion per
    {!Mna.capacitances} entry, so capacitances between the same two
    unknowns share one; inductor branches use the backward-Euler
    companion, added to {!Mna.stamp}'s 0 V branch of each
    {!Mna.inductors} entry. Each step's Newton solve ({!Dc.newton})
    factors only the unknowns that grounded sources do not pin. The
    step size is chosen by a local-truncation-error controller:

    - after each converged step, every node voltage's LTE is estimated
      as [h³·|DD₃|/2], where [DD₃] is the third divided difference over
      the new point and the last three points accepted since the last
      breakpoint (steps with a shorter history are accepted unchecked
      and keep the step size);
    - a step whose LTE exceeds [reltol·max(|x|, |x_prev|) + abstol] on
      any node is rejected and retried shorter, by the factor below but
      not below [1e-4·dt]; a step that short is accepted as it is;
    - otherwise the next step is scaled by [min(2, 0.9·r^(-1/3))],
      where [r] is the worst ratio of LTE to tolerance, and capped at
      [64·dt];
    - every source breakpoint (and [t = 0]) restarts at [dt/4] with an
      empty history; the loop lands exactly on each breakpoint and on
      [tstop], and when one is less than two steps away it halves the
      distance, so no sliver step is left before it;
    - a step whose Newton solve fails is divided by 8, down to
      [1e-4·dt];
    - each Newton solve starts from the quadratic through the last
      three points accepted since the last breakpoint, extrapolated to
      the new time (the history the LTE estimate keeps); with two such
      points from the line through them, with fewer from the last
      accepted point;
    - each step's Newton solve stops once its update is below
      [newton_tol = 1e-4] V in every unknown (|Δx|∞), where the DC
      operating point, the transient's own included, keeps [1e-9].

    The tolerances are constants, [reltol = 1e-7] and [abstol = 1e-9] V,
    chosen by measurement: on the op-amp step responses they keep the
    overshoot and settling-time error against a fixed grid of
    [tstop/4800] below that of a fixed grid of [tstop/1200], which
    [reltol = 3e-7] does not (EXPERIMENTS.md). They are not options.

    [newton_tol] is a constant too. Newton's error after an update of
    size [d] is about [K·d²], so a step that stops at [1e-4] V is off
    by far less than the LTE tolerance [reltol·|x| + abstol] (about
    [2.5e-7] V on the op-amp benches) that sets the accuracy. It is the
    loosest value of a sweep from 1e-9 to 1e-3 that moves no op-amp
    transient spec by more than 1 % of the step controller's own median
    error against the [tstop/4800] grid (slew 1.9e-8, rise 2.2e-8,
    overshoot 8.5e-6, settling 1.3e-6 relative) and keeps the accepted
    and rejected steps within 1 %, on four populations of 200 draws: it
    moved them at most 8.0e-9, 6.6e-9, 3.9e-6 and 7.2e-7. [3e-4] moved
    one population's overshoot by 2.5e-4, and [5e-4] another's by
    5.4e-4. With the quadratic start a step's Newton solve takes 1.07
    iterations, where the linear start at [1e-9] took 2.28
    (EXPERIMENTS.md, "Simulator fast path, round 4").

    A step allocates nothing but the boxed time it passes to its Newton
    solve, 2 minor words an attempt, and a pulse source's boxed value
    on an edge (EXPERIMENTS.md, "Simulator fast path, round 5"). The last three points accepted since the breakpoint
    and the candidate live in four fixed slots; each step's Newton solve
    ({!Dc.newton}) iterates in place in the candidate's slot, from the
    prediction written there; and each accepted point is appended to
    flat arrays of times and state rows that double when full, trimmed
    into the {!result} when the run ends. *)

type result = {
  times : float array;  (** strictly increasing, from 0 to [tstop] *)
  states : Stc_numerics.Mat.t;
      (** one row per time and one column per unknown, every unknown
          kept: row [i] is the solution at [times.(i)], so
          [states.data.((i * states.cols) + j)] is unknown [j] at that
          time *)
}

exception No_convergence of float
(** Carries the simulation time at which Newton failed. *)

val run : Mna.t -> tstop:float -> dt:float -> result
(** Runs from a DC operating point at t=0 to [tstop]. [dt] sets the
    scale of the step: each run and each breakpoint restarts at [dt/4],
    no step exceeds [64·dt], and Newton failure gives up below
    [1e-4·dt]. Every source breakpoint in [(0, tstop)] is a sample
    (breakpoints closer than [1e-4·dt] are merged), and the last time
    is exactly [tstop]. Adds the run's accepted and rejected step
    counts to [stc_tran_steps_total] and [stc_tran_rejected_steps_total]
    and its Newton iterations to [stc_newton_iterations_total], once,
    when it ends.
    Raises [Invalid_argument] unless [tstop] and [dt] are positive. *)

val node_waveform : Mna.t -> result -> Netlist.node -> (float * float) array
(** (time, voltage) samples for one node, 0 for ground. *)
