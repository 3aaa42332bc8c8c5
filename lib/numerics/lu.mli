(** LU factorisation with partial pivoting, the linear solver behind DC,
    transient and least-squares computations. *)

exception Singular of int
(** Raised when a pivot column [i] has no usable pivot (matrix is
    numerically singular). *)

val factor_in_place : Mat.t -> int array -> float
(** [factor_in_place a perm] computes PA = LU on caller-owned storage:
    [a] is overwritten with the packed factors (L strictly below the
    diagonal, its unit diagonal implied; U on and above) and [perm]
    with the row permutation, row [i] of PA being row [perm.(i)] of
    [a]. Returns the permutation's sign. Raises [Singular] if [a] is
    singular (leaving [a] partly eliminated), [Invalid_argument] if [a]
    is not square or [perm] has the wrong length. Allocates nothing
    beyond the returned float. *)

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
