(** The RBF kernel, the one kernel every model here uses, and its γ
    heuristics. *)

val rbf : float -> float array -> float array -> float
(** [rbf gamma x y] = exp(−γ·‖x − y‖²), the squared distance summed left
    to right over coordinates, as {!Flat.rbf_row} and
    {!Flat.rbf_decision} sum it, so the three agree bit for bit. *)

val default_gamma : dim:int -> float
(** libsvm's default 1/dim heuristic. *)

val median_gamma : float array array -> float
(** The median heuristic: γ = 1 / median(‖xᵢ−xⱼ‖²) over a deterministic
    subsample of pairs. Unlike 1/dim it adapts to the data's actual
    spread, which matters when features are normalised by wide
    acceptability ranges and the population occupies a small ball.
    Returns 1.0 for fewer than two points, and {!default_gamma} of the
    points' width when no two of them differ. This is the γ
    {!Svr.train} and {!Svc.train} use unless they are given one. *)
