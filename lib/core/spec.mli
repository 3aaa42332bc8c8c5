(** Device specifications: a named performance parameter with an
    acceptability range (Sec. 2.1 of the paper). *)

type range = {
  lower : float;
  upper : float;
}

type t = {
  name : string;
  unit_label : string;
  nominal : float;
  range : range;
}

val make : name:string -> unit_label:string -> nominal:float ->
  lower:float -> upper:float -> t
(** Raises [Invalid_argument] unless [lower < upper]. *)

val within : range -> float -> bool
(** Inclusive on both bounds. *)

val passes : t -> float -> bool

val width : range -> float

val normalize : t -> float -> float
(** Maps the range to [0,1] (Sec. 4.3): lower bound ↦ 0, upper ↦ 1.
    Good values land inside [0,1], bad values outside. *)

val denormalize : t -> float -> float

val perturb : t -> fraction:float -> t
(** [perturb spec ~fraction] moves each boundary outward by
    [fraction]·|boundary| (inward for negative [fraction]) — the
    paper's "±1 % of the acceptability range boundaries" (Sec. 5.1).
    A zero boundary does not move. Raises [Invalid_argument] if the
    perturbed range collapses. *)
