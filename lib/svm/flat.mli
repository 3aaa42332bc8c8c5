(** Contiguous row-major storage for SVM training data.

    A boxed [float array array] keeps every row in its own heap block:
    the SMO/kernel hot path then pays a pointer chase plus a bounds
    check per coordinate, and rows scattered across the heap defeat the
    prefetcher. [Flat.t] packs the same matrix into one unboxed float
    array, and the dot/distance primitives below run bounds-check-free
    over it after a single up-front index check.

    Bit-compatibility contract: every primitive accumulates in exactly
    the order of its boxed counterpart ({!Stc_numerics.Vec.dot} /
    [Vec.dist2], left to right over coordinates), so kernel values
    computed through a [Flat.t] are bit-identical to the boxed path —
    the property [Stc_qa.Oracle.flat_kernel_agrees] enforces. *)

type t

val of_rows : float array array -> t
(** Copies the rows into contiguous storage. Raises [Invalid_argument]
    on ragged input. An empty matrix has dimension 0. *)

val n_rows : t -> int
val dim : t -> int

val get : t -> int -> int -> float
(** [get t i j] is row [i], coordinate [j]; bounds-checked. *)

val row : t -> int -> float array
(** A fresh boxed copy of row [i]. *)

val dot : t -> int -> int -> float
(** [dot t i j] = Σₖ t[i,k]·t[j,k]. *)

val dist2 : t -> int -> int -> float
(** [dist2 t i j] = Σₖ (t[i,k] − t[j,k])². *)

val dot_vec : t -> int -> float array -> float
(** [dot_vec t i v]: row [i] against an external vector of the same
    dimension. Raises [Invalid_argument] on dimension mismatch. *)

val dist2_vec : t -> int -> float array -> float

val rbf_decision :
  t -> gamma:float -> coef:float array -> b:float -> float array -> float
(** [rbf_decision t ~gamma ~coef ~b v] = b + Σᵢ coefᵢ·exp(−γ·‖rowᵢ − v‖²):
    an RBF decision function over support vectors stored as [t], in one
    loop. The running sum starts at [b] and adds the terms in row order,
    and each squared distance sums left to right from 0, so the result
    is bit-identical to folding {!Kernel.eval} over the boxed rows.
    Raises [Invalid_argument] when [t] has rows and [v]'s length is not
    [dim t], or when [coef] is shorter than [n_rows t]. *)

val rbf_row : t -> gamma:float -> int -> float array -> unit
(** [rbf_row t ~gamma i out] writes exp(−γ·‖rowᵢ − rowⱼ‖²) into
    [out.(j)] for every row [j], in one loop. Each squared distance is
    summed as {!dist2} sums it, so every entry is bit-identical to
    [Kernel.eval_rows (Kernel.rbf gamma) t i j]. Raises
    [Invalid_argument] when [i] is not a row or [out] is shorter than
    [n_rows t]. *)
