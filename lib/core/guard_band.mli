(** Guard-banded three-way classification (Sec. 4.2, Fig. 4).

    Two models are trained from acceptability ranges perturbed outward
    (loose) and inward (tight) by the guard fraction. Agreement gives a
    confident Good/Bad; disagreement places the device in the
    guard-band region, to be routed to full test. *)

type verdict = Good | Bad | Guard

type classifier = float array -> int
(** ±1 predictor over a feature vector. *)

(** A ±1 predictor with its trained model data exposed, so guard bands
    built from SVMs can be serialised ({!Stc_floor.Flow_io}) and shipped
    to the production floor. [Opaque] wraps an arbitrary closure (e.g.
    an adaptive-guard margin rule) and cannot be serialised. *)
type model =
  | Constant of int           (** degenerate one-class training data *)
  | Svr of Stc_svm.Svr.model  (** the paper's ε-SVM, classified by sign *)
  | Svc of Stc_svm.Svc.model
  | Mlp of Stc_learn.Mlp.model
      (** one-hidden-layer perceptron ({!Stc_learn.Mlp}), classified by
          sign; serialises only in [stc-flow-2] containers *)
  | Opaque of classifier

type t

val constant : int -> model
(** Raises [Invalid_argument] unless the label is ±1. *)

val predict : model -> classifier

val input_width : model -> int option
(** The number of inputs the model reads, where its data fixes one: an
    SVR or SVC model's support-vector width (if it has support vectors)
    or an MLP's input size. *)

val of_models : tight:model -> loose:model -> t

val make : tight:classifier -> loose:classifier -> t
(** Closure-only construction; the resulting band is [Opaque] on both
    sides and cannot be serialised. *)

val single_model : model -> t

val single : classifier -> t
(** Degenerate guard band: both models identical (never yields
    [Guard]); useful for ablations. *)

val tight_model : t -> model
val loose_model : t -> model

val is_single : t -> bool
(** True when both sides are physically the same model (built by
    {!single} / {!single_model}). *)

val classify : t -> float array -> verdict
(** [Good] iff both predict +1, [Bad] iff both predict −1, else
    [Guard]. A device inside the tight range is necessarily inside the
    loose one, so with consistent models the tight prediction +1 and
    loose −1 cannot co-occur; if it does (model noise) the verdict is
    still [Guard]. *)

val verdict_to_string : verdict -> string

val equal_verdict : verdict -> verdict -> bool
