(** LU factorisation with partial pivoting, the linear solver behind DC,
    transient and least-squares computations. *)

exception Singular of int
(** Raised when a pivot column [i] has no usable pivot (matrix is
    numerically singular). *)

val factor_in_place : Mat.t -> int array -> int array -> int
(** [factor_in_place a perm cols] computes PA = LU on caller-owned
    storage: [a] is overwritten with the packed factors (L strictly
    below the diagonal, its unit diagonal implied; U on and above) and
    [perm] with the row permutation, row [i] of PA being row [perm.(i)]
    of [a]. [cols], of length at least [n], is a buffer for the columns
    each pivot row updates; its contents are irrelevant before and
    after. Returns the permutation's sign, 1 or -1. Exact zeros of a pivot row
    are skipped and an exactly-zero entry below a finite pivot gets its
    signed-zero multiplier without a division; the factors are the same
    bit for bit as those of a plain elimination with the same pivoting,
    on any matrix that holds no [-0.0]. Raises [Singular] if [a] is
    singular (leaving [a] partly eliminated), [Invalid_argument] if [a]
    is not square or [perm] or [cols] has the wrong length. Allocates
    nothing. *)

val solve_into : Mat.t -> int array -> Vec.t -> Vec.t -> unit
(** [solve_into lu perm b x] writes the solution of [A x = b] into
    [x], given the factors and permutation left by {!factor_in_place}.
    [b] is not modified; [x] must be a different array. *)

type t
(** A factorisation of a square matrix. *)

val factor : Mat.t -> t
(** [factor a] computes PA = LU into fresh storage through
    {!factor_in_place}. Raises [Singular] if [a] is singular,
    [Invalid_argument] if [a] is not square. [a] is not modified. *)

val solve : t -> Vec.t -> Vec.t
(** [solve lu b] solves [A x = b] through {!solve_into}. *)

val det : t -> float
(** Determinant of the factored matrix. *)

val solve_system : Mat.t -> Vec.t -> Vec.t
(** One-shot [factor] + [solve]. *)

val least_squares : Mat.t -> Vec.t -> Vec.t
(** [least_squares a b] solves the normal equations [Aᵀ A x = Aᵀ b];
    suitable for small well-conditioned fitting problems. *)
