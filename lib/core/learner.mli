(** The first-class LEARNER contract: everything the compaction loop
    needs from a trainable ±1 predictor — train / predict / save /
    load / name — so the loop itself is learner-agnostic and new model
    families promote in via differential QA gates instead of code
    forks.

    Three families implement the contract today:

    - [Epsilon_svr] — the paper's ε-SVM (regression on ±1 targets,
      classified by sign); the reference implementation, trained by
      {!Stc_svm.Svr.train} with nothing in between.
    - [C_svc] — soft-margin classification, for ablation.
    - [Mlp] — a small pure-OCaml one-hidden-layer perceptron
      ({!Stc_learn.Mlp}), SGD + momentum, deterministic from its
      config seed.

    {b Determinism of training} is part of the contract: given the same
    features, labels and spec, [train] must return a model whose
    serialised bytes are identical on every run and at any domain
    count — it is what makes flows fingerprintable and journal replay
    sound. SVR/SVC satisfy it because SMO is sequential and seeded
    arithmetic; the MLP satisfies it by drawing initialisation and
    sample order from split {!Stc_numerics.Rng} streams. *)

type spec =
  | Epsilon_svr of { c : float; epsilon : float; gamma : float option }
      (** [gamma = None] uses the median-distance heuristic *)
  | C_svc of { c : float; gamma : float option }
  | Mlp of Stc_learn.Mlp.config

val name : spec -> string
(** ["svr"], ["svc"] or ["mlp"] — the family token used by the CLI,
    journal fingerprints and bench reports. *)

val default_svr : spec
(** C = 10, ε = 0.1, γ from the median heuristic — the paper's
    setting and [Compaction.default_config]'s learner. *)

val default_mlp : spec
(** [Mlp Stc_learn.Mlp.default_config]. *)

(** {1 The contract} *)

val train :
  spec ->
  features:float array array ->
  labels:int array ->
  Guard_band.model
(** Trains one ±1 classifier, returned with its model data so flows
    can be serialised. Degenerate one-class label sets short-circuit
    to {!Guard_band.constant} for every family. *)

val predict : Guard_band.model -> float array -> int
(** [Guard_band.predict]. *)

val save : Guard_band.model -> (string, string) result
(** The {!Model_text} embedding ({!Guard_band.Opaque} does not
    serialise). *)

val load : string -> (Guard_band.model, string) result
(** Inverse of {!save} on a standalone text; rejects trailing
    content. *)
