(** Dense row-major float matrices. *)

type t = {
  rows : int;
  cols : int;
  data : float array;  (** row-major, length [rows * cols] *)
}

val create : int -> int -> float -> t
val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val copy : t -> t

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j x] accumulates [x] into entry [(i, j)]; this is the
    primitive used by MNA stamping. *)

val dims : t -> int * int

val transpose : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val mul : t -> t -> t
val mul_vec : t -> Vec.t -> Vec.t

val of_rows : float array array -> t
