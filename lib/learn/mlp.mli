(** A small pure-OCaml multi-layer perceptron: one tanh hidden layer,
    a linear output, trained by per-sample SGD with momentum on ±1
    targets (the arXiv 2406.00516 direction — a neural alternate-test
    regressor instead of ε-SVR).

    Training is a {e deterministic function} of the data and the
    config: all randomness (weight initialisation, per-epoch sample
    order) flows through split {!Stc_numerics.Rng} streams derived from
    [config.seed], and the arithmetic is sequential — so the same call
    always produces the bit-identical model, which is what lets MLP
    guard bands be persisted, fingerprinted, and replayed from
    compaction journals exactly like SVR ones. *)

type config = {
  hidden : int;    (** hidden units (>= 1) *)
  epochs : int;    (** full passes over the training set (>= 0) *)
  rate : float;    (** SGD learning rate (> 0) *)
  momentum : float;(** velocity decay in [0, 1) *)
  seed : int;      (** drives init and sample order; same seed = same model *)
}

val default_config : config
(** hidden 8, epochs 300, rate 0.05, momentum 0.9, seed 1905. *)

type model

val train :
  ?config:config -> x:float array array -> y:float array -> unit -> model
(** [y] holds ±1 targets (any finite reals are accepted; the sign is
    what classification uses). Raises [Invalid_argument] on an empty
    training set, ragged rows, a length mismatch, or a config out of
    range. [epochs = 0] returns the deterministic initial weights —
    useful as a deliberately bad learner in promotion-gate tests. *)

val predict : model -> float array -> float
(** The raw network output f(x). Raises [Invalid_argument] when the
    probe's width differs from the training width. *)

val classify : model -> float array -> int
(** sign of {!predict}: +1 iff f(x) >= 0. *)

val dim : model -> int

(** {1 Serialisation}

    Flat line-oriented text ([stc-mlp-1] tag), every weight through
    [%.17g] so reloaded models predict bit-identically. The format is
    canonical: [of_string (to_string m) = Ok m'] with
    [to_string m' = to_string m]. *)

val to_string : model -> string

val of_string : string -> (model, string) result
(** Rejects unknown tags, shape mismatches and non-finite weights with
    a descriptive message. *)

(** {1 Raw weights} — exposed so differential oracles can recompute the
    forward pass independently, and QA generators can synthesise
    models. *)

type raw = {
  raw_hidden_w : float array array;  (** hidden × dim *)
  raw_hidden_b : float array;        (** hidden *)
  raw_out_w : float array;           (** hidden *)
  raw_out_b : float;
}

val to_raw : model -> raw
val of_raw : raw -> model
(** Raises [Invalid_argument] on shape disagreement. *)
