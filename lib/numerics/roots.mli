(** Scalar root finding, used for spec extraction (e.g. locating the
    -3 dB crossing of a frequency response). *)

val bisect :
  ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float
(** [bisect f a b] finds a root of [f] in [a, b]. Requires
    [f a] and [f b] of opposite (or zero) sign, else
    [Invalid_argument]. Default [tol] 1e-12 (on the interval width),
    [max_iter] 200. *)

val brent :
  ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float
(** Brent's method (inverse quadratic interpolation with bisection
    fallback); same contract as {!bisect}, faster convergence. *)

val find_bracket :
  (float -> float) -> lo:float -> hi:float -> steps:int ->
  (float * float) option
(** [find_bracket f ~lo ~hi ~steps] returns the first of the [steps]
    cells of the grid [x_0 = lo], [x_i = lo + i·(hi − lo)/steps] whose
    two ends [f] gives opposite signs (a zero counts as either sign), or
    [None]. The grid's last point is computed by that formula, so it
    may differ from [hi] by rounding.

    When [f lo] and [f x_steps] have strict and opposite signs, it
    halves the range of cells instead of scanning it: about
    [2 + log₂ steps] evaluations (11 for 300 cells) instead of up to
    [steps + 1]. The cell it returns has ends of opposite signs, and
    when [f] changes sign once on the grid (no grid point after the
    first zero or sign change has [f lo]'s strict sign again) it is the
    first such cell, the one a scan from [lo] returns. Otherwise (the
    ends share a sign, one is zero or not a number) it scans from [lo]
    and evaluates [f] at most once per grid point. [f] must be a pure
    function of its argument. *)
