(** Complex dense matrices and a complex LU solver, used by the AC
    (small-signal frequency-domain) analysis where the MNA system is
    [(G + jωC) x = b]. *)

type t = {
  rows : int;
  cols : int;
  data : Complex.t array;  (** row-major *)
}

val create : int -> int -> Complex.t -> t
val init : int -> int -> (int -> int -> Complex.t) -> t
val copy : t -> t

val get : t -> int -> int -> Complex.t
val set : t -> int -> int -> Complex.t -> unit
val add_to : t -> int -> int -> Complex.t -> unit

val combine : Mat.t -> Mat.t -> float -> t
(** [combine g c omega] is the complex matrix [G + jωC]; [g] and [c]
    must have identical dimensions. *)

val mul_vec : t -> Complex.t array -> Complex.t array

exception Singular of int

val solve : t -> Complex.t array -> Complex.t array
(** Gaussian elimination with partial pivoting (by modulus). Raises
    [Singular] on a numerically singular system. The inputs are not
    modified. *)
