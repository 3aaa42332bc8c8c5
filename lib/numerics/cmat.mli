(** The complex linear solver behind the AC (small-signal
    frequency-domain) analysis, where the MNA system is
    [(G + jωC) x = b]. *)

exception Singular of int
(** Raised when pivot column [i] has no usable pivot. *)

val solve :
  Mat.t -> Mat.t -> omega:float -> Complex.t array -> Complex.t array
(** [solve g c ~omega b] solves [(g + jωc) x = b] by Gaussian
    elimination with partial pivoting by modulus, on split real and
    imaginary float arrays. Each step uses the operations of
    [Complex.sub], [Complex.mul], [Complex.div] and [Complex.norm], in
    the order a [Complex.t] elimination would, so [x] is the same bit
    for bit as that elimination's. Raises [Singular] on a numerically
    singular system and [Invalid_argument] on a dimension mismatch.
    The inputs are not modified. *)
