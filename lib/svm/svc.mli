(** Soft-margin C-support-vector classification. *)

type model

val train :
  ?c:float ->
  ?kernel:Kernel.t ->
  ?eps:float ->
  x:float array array ->
  y:int array ->
  unit ->
  model
(** Trains on inputs [x] with labels [y] (each ±1). Defaults:
    [c = 1.0], RBF kernel with γ from {!Kernel.median_gamma},
    [eps = 1e-3]. Raises
    [Invalid_argument] on empty data, ragged rows, or labels outside
    {−1, +1}. *)

val decision : model -> float array -> float
(** Signed distance-like decision value f(x). *)

val predict : model -> float array -> int
(** sign of {!decision}: +1 or −1 (0.0 maps to +1). *)

val n_support : model -> int

val dim : model -> int
(** The width of the support vectors: the number of inputs the model
    reads, or 0 when it has no support vectors. *)

val bias : model -> float
val kernel : model -> Kernel.t

val dual_coefs : model -> float array
(** yᵢαᵢ for each support vector. *)

type raw = {
  raw_kernel : Kernel.t;
  raw_sv : float array array;
  raw_coef : float array;
  raw_b : float;
}
(** The model's internal representation, exposed for serialisation
    ({!Model_io}). *)

val to_raw : model -> raw

val of_raw : raw -> model
(** Rebuilds a model; no validation beyond shape (raises
    [Invalid_argument] when [raw_sv] and [raw_coef] differ in length or
    the support vectors differ in width). *)
