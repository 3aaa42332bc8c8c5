(** Dense float vectors.

    A vector is a plain [float array]; this module gathers the numeric
    operations used across the simulators and the SVM solver so callers
    never re-implement loops. All binary operations require equal
    lengths and raise [Invalid_argument] otherwise. *)

type t = float array

val create : int -> float -> t
(** [create n x] is a fresh vector of [n] copies of [x]. *)

val init : int -> (int -> float) -> t
(** [init n f] is [| f 0; ...; f (n-1) |]. *)

val copy : t -> t

val dim : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val axpy : float -> t -> t -> unit
(** [axpy a x y] updates [y <- a*x + y] in place. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float
(** Maximum absolute entry; 0 for the empty vector. *)

val dist2 : t -> t -> float
(** [dist2 x y] is the squared Euclidean distance between [x] and [y]. *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t

val max_index : t -> int
(** Index of the largest entry (first on ties). Raises
    [Invalid_argument] on the empty vector. *)

val of_list : float list -> t
val to_list : t -> float list
