(** Contiguous row-major storage for SVM training data and support
    vectors.

    A boxed [float array array] keeps every row in its own heap block:
    the SMO/kernel hot path then pays a pointer chase plus a bounds
    check per coordinate, and rows scattered across the heap defeat the
    prefetcher. [Flat.t] packs the same matrix into one unboxed float
    array, and the two RBF loops below run bounds-check-free over it
    after a single up-front index check.

    Bit-compatibility contract: each squared distance is summed in
    exactly the order of {!Kernel.rbf}'s ([Vec.dist2], left to right
    over coordinates), so every kernel value computed through a
    [Flat.t] is bit-identical to the boxed one — the property
    [Stc_qa.Oracle.flat_kernel_agrees] enforces. *)

type t

val of_rows : float array array -> t
(** Copies the rows into contiguous storage. Raises [Invalid_argument]
    on ragged input. An empty matrix has dimension 0. *)

val n_rows : t -> int
val dim : t -> int

val row : t -> int -> float array
(** A fresh boxed copy of row [i]. *)

val rbf_decision :
  t -> gamma:float -> coef:float array -> b:float -> float array -> float
(** [rbf_decision t ~gamma ~coef ~b v] = b + Σᵢ coefᵢ·exp(−γ·‖rowᵢ − v‖²):
    an RBF decision function over support vectors stored as [t], in one
    loop. The running sum starts at [b] and adds the terms in row order,
    and each squared distance sums left to right from 0, so the result
    is bit-identical to folding {!Kernel.rbf} over the boxed rows.
    Raises [Invalid_argument] when [t] has rows and [v]'s length is not
    [dim t], or when [coef] is shorter than [n_rows t]. *)

val rbf_row : t -> gamma:float -> int -> float array -> unit
(** [rbf_row t ~gamma i out] writes exp(−γ·‖rowᵢ − rowⱼ‖²) into
    [out.(j)] for every row [j], in one loop, each entry bit-identical
    to [Kernel.rbf gamma (row t i) (row t j)]. Raises
    [Invalid_argument] when [i] is not a row or [out] is shorter than
    [n_rows t]. *)
