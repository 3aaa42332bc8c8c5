(** The specification-test compaction procedure (Sec. 3, Fig. 2).

    Starting from the complete test set, each candidate test is
    tentatively removed; an ε-SVM is trained to predict pass/fail of
    the removed specification set [S_red] from the remaining measured
    specifications; if the held-out prediction error stays below the
    tolerance [e_T] the removal becomes permanent.

    The final production flow measures only the kept specifications and
    consults a guard-banded model pair for the dropped ones. *)

type learner = Learner.spec =
  | Epsilon_svr of { c : float; epsilon : float; gamma : float option }
      (** the paper's ε-SVM: regression on ±1 targets, classify by
          sign; [gamma = None] uses {!Stc_svm.Kernel.median_gamma} *)
  | C_svc of { c : float; gamma : float option }
      (** standard soft-margin classification, for ablation *)
  | Mlp of Stc_learn.Mlp.config
      (** pure-OCaml one-hidden-layer perceptron; training is
          deterministic from the config seed. Promoted via the
          [Stc_qa.Oracle.learner_promotes] differential gate *)

type config = {
  learner : learner;
  tolerance : float;       (** e_T: acceptable prediction-error fraction *)
  guard_fraction : float;  (** δ: range perturbation, fraction of width *)
  grid : Grid_compact.config option;
      (** training-data compaction before SVM training *)
  measured_guard : bool;
      (** also guard-band devices whose *measured* kept specs fall
          within δ of a range boundary *)
}

val default_config : config
(** ε-SVR (C=10, ε=0.1, γ from the median heuristic), e_T = 1 %,
    δ = 1 %, no grid compaction, measured guard on. *)

type flow = {
  specs : Spec.t array;
  kept : int array;
  dropped : int array;
  band : Guard_band.t option;   (** [None] iff nothing was dropped *)
  guard_fraction : float;
  measured_guard : bool;
}

val identity_flow : Spec.t array -> flow
(** The uncompacted flow: every spec measured, no model. *)

val train_predictor : config -> Device_data.t -> dropped:int array ->
  Guard_band.t * (float array -> int)
(** Trains the guard-band model pair and the nominal model for a given
    dropped set. The band carries its trained model data
    ({!Guard_band.model}), so the resulting flow can be serialised with
    [Stc_floor.Flow_io]. The classifiers take the *normalised kept-spec
    feature vector*. Raises [Invalid_argument] when [dropped] is empty
    or not a valid index set. *)

val make_flow : config -> Device_data.t -> dropped:int array -> flow
(** The flow for a dropped set, its band equal to {!train_predictor}'s.
    It trains only the models the band keeps: with a guard, the tight
    and loose pair but not the nominal model. *)

val flow_verdict : flow -> float array -> Guard_band.verdict
(** Bins one device from its full measured spec row (only kept columns
    are read — at the real tester the dropped specs are never
    measured). *)

val evaluate_flow : flow -> Device_data.t -> Metrics.counts
(** Runs the flow over a (test) population; truth is pass/fail of the
    complete spec set. *)

val prediction_error : (float array -> int) -> Device_data.t ->
  kept:int array -> dropped:int array -> float
(** e_p: fraction of instances whose [S_red] pass/fail the model
    mispredicts. *)

type step = {
  spec_index : int;
  accepted : bool;
  error : float;                    (** e_p for this candidate *)
}

type result = {
  flow : flow;
  steps : step list;   (** in examination order *)
  config : config;
}

val journal_fingerprint :
  config -> train:Device_data.t -> test:Device_data.t -> order:int array ->
  string
(** Binds a {!Journal} to one run: a hash over the config, the computed
    examination order, and both populations (the accept decisions read
    the test data too). Two runs whose greedy decisions could diverge
    get different fingerprints. *)

val greedy :
  ?order:Order.strategy ->
  ?journal:Journal.writer ->
  ?replay:Journal.entry array ->
  config ->
  train:Device_data.t ->
  test:Device_data.t ->
  result
(** The Fig. 2 loop. Each candidate's nominal model is trained on its
    trial set alone, as {!train_predictor} trains it, and its e_p is
    measured on [test], the paper's protocol. [order] defaults to
    [By_failure_count].

    The loop is resumable after a crash. [replay] holds the steps an
    earlier (killed) run already decided, in examination order: they
    are taken as recorded — no SVM is trained for them — and the loop
    continues live from the first unjournaled candidate, so the
    dominant cost of a crashed run is not paid twice. Every live step
    is appended (and flushed) to [journal] before the loop advances,
    and the [done] trailer is written on completion. Because each
    training set is a deterministic function of the prior decisions, a
    resumed run returns a flow bit-identical (via [Stc_floor.Flow_io])
    to an uninterrupted one.

    Raises [Invalid_argument] when [replay] does not match this run's
    examination order (guard against resuming a foreign journal beyond
    what {!journal_fingerprint} already catches) and [Failure] when the
    journal cannot be written. *)

val eliminate :
  config -> train:Device_data.t -> test:Device_data.t ->
  dropped:int array -> Metrics.counts * flow
(** Forces a specific dropped set (no acceptance decision) and
    evaluates it — Table 3 rows and Figure 5/6 points. *)
