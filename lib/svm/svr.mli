(** ε-support-vector regression — the paper's "ε-SVM". The compaction
    flow trains it on ±1 pass/fail targets and classifies by the sign
    of the regression function (Sec. 2.2 of the paper). *)

type model

val train :
  ?c:float ->
  ?epsilon:float ->
  ?kernel:Kernel.t ->
  ?eps:float ->
  x:float array array ->
  y:float array ->
  unit ->
  model
(** [epsilon] is the insensitive-tube half-width (default 0.1);
    [eps] the SMO stopping tolerance (default 1e-3); other defaults as
    in {!Svc.train}. *)

val predict : model -> float array -> float
(** The regression estimate f(x). *)

val classify : model -> float array -> int
(** sign of {!predict}: +1 or −1. *)

val n_support : model -> int

val dim : model -> int
(** The width of the support vectors: the number of inputs the model
    reads, or 0 when it has no support vectors. *)

val bias : model -> float
val kernel : model -> Kernel.t

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
