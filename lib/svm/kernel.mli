(** Kernel functions for the SVM solvers. *)

type t =
  | Linear
  | Polynomial of { gamma : float; coef0 : float; degree : int }
      (** (γ·⟨x,y⟩ + c₀)^d *)
  | Rbf of { gamma : float }  (** exp(−γ·‖x−y‖²) *)
  | Sigmoid of { gamma : float; coef0 : float }  (** tanh(γ·⟨x,y⟩ + c₀) *)

val rbf : float -> t
val linear : t

val eval : t -> float array -> float array -> float
(** [eval k x y] computes K(x, y). *)

val eval_rows : t -> Flat.t -> int -> int -> float
(** [eval_rows k rows i j] computes K(rowsᵢ, rowsⱼ) over contiguous
    {!Flat} storage, bit-identical to [eval] on the boxed rows (the
    flat primitives accumulate in the same order as [Vec.dot]/
    [Vec.dist2]). This is the SMO hot-path entry point. *)

val fill_row : t -> Flat.t -> int -> float array -> unit
(** [fill_row k rows i out] writes [eval_rows k rows i j] into [out.(j)]
    for every row [j], the same bits. RBF runs as one loop
    ({!Flat.rbf_row}); the other kernels call {!eval_rows} per entry.
    [out] must hold at least [Flat.n_rows rows] entries. *)

val eval_row_vec : t -> Flat.t -> int -> float array -> float
(** [eval_row_vec k rows i v] computes K(rowsᵢ, v), bit-identical to
    [eval rows.(i) v]. *)

val decision : t -> Flat.t -> coef:float array -> b:float -> float array -> float
(** [decision k sv ~coef ~b x] = b + Σᵢ coefᵢ·K(svᵢ, x), the decision
    function of a trained SVM whose support vectors are the rows of
    [sv]. The sum starts at [b] and adds the terms in row order, so the
    result is bit-identical to folding {!eval} over the boxed rows. RBF
    runs as one fused loop ({!Flat.rbf_decision}); the other kernels go
    through {!eval_row_vec}. Raises [Invalid_argument] when [sv] has
    rows and [x]'s length differs from their width. *)

val default_gamma : dim:int -> float
(** libsvm's default 1/dim heuristic. *)

val median_gamma : float array array -> float
(** The median heuristic: γ = 1 / median(‖xᵢ−xⱼ‖²) over a deterministic
    subsample of pairs. Unlike 1/dim it adapts to the data's actual
    spread, which matters when features are normalised by wide
    acceptability ranges and the population occupies a small ball.
    Falls back to {!default_gamma} when the data is degenerate (fewer
    than two distinct points). *)

val pp : Format.formatter -> t -> unit
