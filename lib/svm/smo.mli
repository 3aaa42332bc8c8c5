(** Generic SMO solver for the SVM dual problem (libsvm formulation):

    {v min_α  1/2 αᵀQα + pᵀα
       s.t.   yᵀα = 0,  0 ≤ α_i ≤ C v}

    with second-order working-set selection (Fan, Chen & Lin 2005).
    Both C-SVC and ε-SVR reduce to this problem; see {!Svc} and
    {!Svr}.

    The solver shrinks the problem (Joachims 1999, as libsvm does).
    Every min(size, 1000) iterations it drops from its two O(size)
    scans each variable at a bound that cannot take part in a violating
    pair, so late iterations touch only the few variables still moving.
    The active set stays in index order, so rows keep their index space
    and a solve whose shrunk variables never become violators takes
    the unshrunk solver's steps. It keeps [G_bar], the part of the
    gradient owed to variables at their upper bound, and updates it
    when a variable reaches or leaves that bound; a shrunk variable's
    gradient is rebuilt from [G_bar] and the free variables. Every
    variable is brought back once, the first time the KKT gap falls to
    10·eps. When the active set meets the stopping rule, the whole
    gradient is rebuilt and every variable checked again; a violator
    resumes the solve. A [max_iter] exit rebuilds it too, before [rho]
    and [objective] are computed. Each rebuild counts toward the
    [stc_smo_reconstructs_total] registry counter. *)

type problem = {
  size : int;
  q_row : int -> float array;
      (** [q_row i] returns row i of Q (length [size]); called often,
          so wrap it in a cache for expensive kernels *)
  q_diag : float array;  (** diagonal of Q *)
  p : float array;
  y : float array;       (** entries must be ±1 *)
  c : float;             (** upper bound of every variable *)
}

type solution = {
  alpha : float array;
  rho : float;          (** decision offset: f(x) = Σᵢ yᵢαᵢK(xᵢ,x) − rho *)
  objective : float;
  iterations : int;
}

val solve : ?eps:float -> ?max_iter:int -> problem -> solution
(** Solves from α = 0, so the solution depends only on the problem.
    [eps] is the KKT violation tolerance (default 1e-3, libsvm's);
    [max_iter] caps the outer loop (default 10·size, at least 10 000). *)
