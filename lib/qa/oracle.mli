(** Differential oracles: independent reference implementations that
    the production code paths must agree with.

    Three families:
    - a naive reference binner — sequential, unbatched, closure-based —
      that {!Stc_floor.Floor} must match bit-for-bit under any batch
      size and domain count;
    - brute-force SVM decision functions recomputed from the model's
      fields with an independent kernel evaluation, checked against
      {!Stc_svm.Model.decision}, plus dual-feasibility checks on what
      the SMO solver produced;
    - round-trip laws for {!Stc_floor.Flow_io}, {!Stc_svm.Model} and
      {!Stc_floor.Device_csv}: parse ∘ print = id and
      print ∘ parse = canonicalise.

    Every check returns [(unit, string) result] with a human-readable
    counterexample description, which a qcheck property reports as its
    failure. *)

(* ----------------------- reference binner ------------------------- *)

val reference_outcomes :
  ?retest:(float array -> bool) ->
  Stc.Compaction.flow ->
  float array array ->
  Stc_floor.Floor.outcome array
(** Bins the rows one by one in order, with the flow's classifiers
    bound once as closures — a from-scratch reimplementation of the
    verdict semantics ({!Stc.Compaction.flow_verdict} plus
    {!Stc_floor.Floor}'s bin mapping) sharing only the primitive float
    operations, so a batching, scheduling, or escalation-order bug in
    the engine cannot also hide here. *)

val floor_matches :
  ?retest:(float array -> bool) ->
  batch_sizes:int list ->
  domain_counts:int list ->
  Stc.Compaction.flow ->
  float array array ->
  (unit, string) result
(** Runs a fresh {!Stc_floor.Floor} engine for every batch-size ×
    domain-count combination and demands verdicts and bins identical to
    {!reference_outcomes}, and engine counters that partition the
    devices. [Error] names the first mismatching configuration and
    row. *)

(* --------------------- reference SVM decision --------------------- *)

val flat_kernel_agrees : float list -> float array array -> (unit, string) result
(** Differential oracle for the flat-storage kernel path: for every γ
    and every (i, j) row pair, entry j of the row [Flat.rbf_row]
    computes for row i over contiguous {!Stc_svm.Flat} storage must
    equal the boxed [Kernel.rbf] bit-for-bit (IEEE bit pattern, no
    tolerance). This is the contract that lets the SMO hot path use
    flat storage without perturbing a single trained model. *)

val kernel_ref : float -> float array -> float array -> float
(** [kernel_ref gamma x y]: an independent RBF kernel evaluation
    (index loops, no shared helpers). *)

val decision_ref : Stc_svm.Model.t -> float array -> float
(** b + Σ coefᵢ·K(svᵢ, x), recomputed from the model's fields with
    {!kernel_ref}. *)

val agrees :
  ?tol:float -> Stc_svm.Model.t -> float array -> (unit, string) result
(** {!Stc_svm.Model.decision} and {!decision_ref} agree within [tol]
    (default 1e-9, scaled by magnitude), and the ±1 classifications
    agree whenever the decision is not within [tol] of zero. *)

val dual_feasible : c:float -> Stc_svm.Model.t -> (unit, string) result
(** The trained dual coefficients — yᵢαᵢ for a C-SVC, αᵢ − αᵢ* for an
    ε-SVR — satisfy the box constraint |coefᵢ| ≤ C and the equality
    constraint Σ coefᵢ = 0: what any correct SMO fixed point must
    satisfy, independent of the working-set strategy. *)

(* -------------------------- round trips --------------------------- *)

val flow_roundtrips : Stc.Compaction.flow -> (unit, string) result
(** print → parse → print is byte-identical (the format's canonicality
    law). *)

val flow_verdicts_survive :
  Stc.Compaction.flow -> float array array -> (unit, string) result
(** The reloaded flow reproduces every row's verdict bit-for-bit. *)

val model_roundtrips : tag:string -> Stc_svm.Model.t -> (unit, string) result
(** The model text's canonicality law under [tag]: print → parse →
    print is byte-identical. *)

val csv_roundtrips :
  specs:Stc.Spec.t array -> rows:float array array -> (unit, string) result
(** Writes to a fresh temp file, reads back, demands bit-identical
    cells and header names; the temp file is always removed. *)

(* ------------------------- learner oracles ------------------------ *)

val mlp_forward_ref : Stc_learn.Mlp.model -> float array -> float
(** Brute-force forward pass recomputed from
    {!Stc_learn.Mlp.to_raw} with plain iterators. *)

val mlp_agrees :
  ?tol:float -> Stc_learn.Mlp.model -> float array -> (unit, string) result
(** {!Stc_learn.Mlp.predict} matches {!mlp_forward_ref} within [tol]
    (default 1e-9, magnitude-scaled), and the ±1 classification
    matches whenever the output is not within [tol] of zero. *)

val mlp_roundtrips : Stc_learn.Mlp.model -> (unit, string) result
(** The [stc-mlp-1] canonicality law: print → parse → print is
    byte-identical. *)

val mi_matches_ref :
  ?bins:int -> labels:int array -> float array -> (unit, string) result
(** {!Stc_learn.Mi.score} must equal — IEEE bit pattern, no
    tolerance — a reference that recounts every (bin, label) cell with
    a separate full scan of the data. *)

val mi_permutation_invariant :
  ?bins:int ->
  permutation:int array ->
  labels:int array ->
  float array ->
  (unit, string) result
(** Applying one permutation to values and labels together may not
    change the score by a single bit (the score is a function of
    integer counts only). *)

(* ------------------------ enrichment oracles ---------------------- *)

val enrichment_deterministic :
  ?domain_counts:int list ->
  seed:int ->
  pilot:int ->
  n:int ->
  Stc_process.Montecarlo.device ->
  limits:(float * float) array ->
  (unit, string) result
(** Runs {!Stc_process.Enrich.generate} once per domain count (default
    [1; 2; 4]) and demands bit-identical datasets — inputs, measured
    specs, importance weights (IEEE bit patterns, no tolerance),
    discarded count — and identical run statistics. This is the
    contract that lets enriched populations fan out across cores. *)

val enrichment_unbiased :
  ?tolerance_sigmas:float ->
  seed:int ->
  pilot:int ->
  n:int ->
  Stc_process.Montecarlo.device ->
  limits:(float * float) array ->
  (unit, string) result
(** The weighted-vs-unweighted statistics oracle: the self-normalised
    weighted yield of an enriched population must match the plain yield
    of an independent uniform population of the same size within
    [tolerance_sigmas] (default 5) combined standard errors — the
    enriched side's error computed at its Kish effective sample size —
    plus a 0.01 absolute slack. Also rejects any non-finite or
    non-positive importance weight. *)

val mlp_deterministic :
  ?domain_counts:int list ->
  ?config:Stc_learn.Mlp.config ->
  seed:int ->
  n:int ->
  Stc_process.Montecarlo.device ->
  limits:(float * float) array ->
  (unit, string) result
(** Determinism-of-training contract for the MLP: generate the same
    population at each domain count (default [1; 2; 4]), train, and
    demand byte-identical serialised models — plus a repeat run at the
    first count to catch hidden global state. *)

(* ------------------------- promotion gate ------------------------- *)

type promotion = {
  baseline : string;
  candidate : string;
  baseline_dropped : int;
  candidate_dropped : int;
  baseline_escape_pct : float;
  candidate_escape_pct : float;
  baseline_loss_pct : float;
  candidate_loss_pct : float;
}

val learner_promotes :
  ?slack_pct:float ->
  ?order:Stc.Order.strategy ->
  candidate:Stc.Compaction.learner ->
  Stc.Compaction.config ->
  train:Stc.Device_data.t ->
  test:Stc.Device_data.t ->
  (promotion, string) result
(** The differential promotion gate: runs the full greedy compaction
    twice at equal tolerance — once with [config]'s learner (the
    baseline, normally ε-SVR) and once with [candidate] — and admits
    the candidate only if (a) it actually compacts whenever the
    baseline does (a learner whose predictions never clear the
    tolerance drops nothing and would otherwise score a trivial zero
    escape), and (b) its test escape and yield-loss percentages do not
    exceed the baseline's by more than [slack_pct] percentage points
    (default 0). [Ok] carries both sides' numbers for reporting. *)
