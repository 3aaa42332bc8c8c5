(** A trained RBF support-vector machine: the one model type that both
    the ε-SVR ({!Svr.train}) and the C-SVC ({!Svc.train}) return, and
    its text form. *)

type t = {
  gamma : float;  (** the RBF kernel's γ: K(x, y) = exp(−γ·‖x − y‖²) *)
  sv : Flat.t;  (** the support vectors, one row each *)
  coef : float array;
      (** one weight per support vector: yᵢαᵢ for the C-SVC, αᵢ − αᵢ*
          for the ε-SVR *)
  b : float;  (** the bias *)
}

val decision : t -> float array -> float
(** f(x) = b + Σᵢ coefᵢ·K(svᵢ, x), through {!Flat.rbf_decision}: the
    ε-SVR's regression estimate, the C-SVC's signed decision value. *)

val classify : t -> float array -> int
(** The sign of {!decision}: +1 or −1 (0.0 maps to +1). *)

(** {1 Text form}

    SVMlight-style and flat, so a compacted test program can be trained
    once and shipped to the tester: the [tag] line (["stc-svr-1"] or
    ["stc-svc-1"] names the family that trained the model), then
    [kernel rbf γ], [bias b] and [nsv n], then one support vector per
    line ([coef v1 v2 ...]). Every number prints as [%.17g], so
    decisions are bit-identical after reload. *)

val to_string : tag:string -> t -> string

val of_string : tag:string -> string -> (t, string) result
(** The inverse of {!to_string}. [Error] for a first line other than
    [tag], a kernel other than [rbf] (["unknown kernel"]), a missing
    header, a support-vector count that differs from [nsv], support
    vectors of different widths, and a non-finite γ, bias, coefficient
    or cell, which [float_of_string] would accept. *)
