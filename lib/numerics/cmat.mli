(** The complex linear solver behind the AC (small-signal
    frequency-domain) analysis, where the MNA system is
    [(G + jωC) x = b]. *)

exception Singular of int
(** Raised when pivot column [i] has no usable pivot. *)

type buffers
(** The split real and imaginary storage one elimination of an
    [n × n] system works in. A caller that solves one system at many
    frequencies allocates them once. One elimination at a time may use
    them. *)

val buffers : int -> buffers
(** [buffers n] for systems of [n] unknowns. *)

val solve :
  buffers -> Mat.t -> Mat.t -> omega:float -> float array -> float array -> unit
(** [solve bufs g c ~omega xr xi] solves [(g + jωc) x = b] in place by
    Gaussian elimination with partial pivoting by modulus, in [bufs]:
    [xr] and [xi] hold the real and imaginary parts of [b] on entry and
    those of [x] on return. Each step uses the operations of
    [Complex.sub], [Complex.mul], [Complex.div] and [Complex.norm], in
    the order a [Complex.t] elimination would, so [x] is the same bit
    for bit as that elimination's; the pivot search skips exact zeros,
    whose modulus never beats the best so far. Allocates nothing.
    Raises [Singular] on a numerically singular system (leaving [xr]
    and [xi] partly eliminated) and [Invalid_argument] on a dimension
    mismatch, [bufs] included. [g] and [c] are not modified. *)
