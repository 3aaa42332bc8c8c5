(** Seeded qcheck generators for every value the compaction → serving
    pipeline consumes: specs and acceptance ranges, device measurement
    rows, raw and trained SVR/SVC models, guard bands, and full
    {!Stc.Compaction.flow} values.

    All generators are plain {!QCheck.Gen.t} values: qcheck properties
    draw them through {!arb_flow} etc., and deterministic tests through
    {!run} with an explicit seed.

    Invariants guaranteed by construction, so generated values exercise
    the pipeline rather than its argument validation:
    - spec ranges satisfy [lower < upper] with width ≥ 1 and bounded
      magnitude, and guard fractions are ≤ 1 %, so {!Stc.Spec.perturb}
      can never collapse a range;
    - all floats are finite (fault injection, not generation, is where
      NaN/inf enter — see {!Faults});
    - a flow's band models take feature vectors of exactly the kept
      dimensionality, and [band = None] iff nothing was dropped;
    - spec names avoid commas and newlines (the CSV interchange format
      does not escape them) but do contain spaces and percent signs to
      exercise {!Stc_floor.Flow_io}'s field encoding. *)

val run : seed:int -> 'a QCheck.Gen.t -> 'a
(** Draw one value deterministically from a seed. *)

(* ------------------------- specs and rows ------------------------- *)

val spec : Stc.Spec.t QCheck.Gen.t

val specs : ?min_specs:int -> ?max_specs:int -> unit ->
  Stc.Spec.t array QCheck.Gen.t
(** Defaults: 1 to 6 specs. *)

val row : Stc.Spec.t array -> float array QCheck.Gen.t
(** One device: each cell lands in the spec's range widened by one
    range-width, so pass, fail and near-boundary cells all occur. *)

val rows : Stc.Spec.t array -> n:int -> float array array QCheck.Gen.t

(* ------------------------ enrichment devices ---------------------- *)

val enrich_device :
  (Stc_process.Montecarlo.device * (float * float) array) QCheck.Gen.t
(** A pure analytic device (2–5 varied parameters, 1–4 specs that are
    linear in the parameters, never a failed simulation) together with
    acceptance limits placed a random 0.8–2.5 propagated sigmas from
    the nominal response — occasionally one-sided — so the uniform
    yield sits away from 0 %/100 % and a boundary exists for
    {!Stc_process.Enrich} to enrich. *)

(* ----------------------------- models ----------------------------- *)

val kernel : Stc_svm.Kernel.t QCheck.Gen.t
(** Any of the four kernel families, with finite positive [gamma]. *)

val svr : dim:int -> Stc_svm.Svr.model QCheck.Gen.t
(** A structurally valid model built through {!Stc_svm.Svr.of_raw}
    (1–6 support vectors), cheap enough to generate by the thousand.
    Use {!trained_svr} when solver output is required. *)

val svc : dim:int -> Stc_svm.Svc.model QCheck.Gen.t

val trained_svr : dim:int -> n:int ->
  (float * Stc_svm.Svr.model) QCheck.Gen.t
(** Actually runs the SMO solver on a generated two-class dataset of
    [n] points; returns the box constraint [c] used, for dual-feasibility
    checks ({!Oracle.svr_dual_feasible}). *)

val trained_svc : dim:int -> n:int ->
  (float * Stc_svm.Svc.model) QCheck.Gen.t

val mlp : dim:int -> Stc_learn.Mlp.model QCheck.Gen.t
(** Structurally valid raw weights (1–4 hidden units) through
    {!Stc_learn.Mlp.of_raw} — no SGD run, so weight patterns no
    training trajectory reaches are covered too. *)

val model : dim:int -> Stc.Guard_band.model QCheck.Gen.t
(** [Constant], [Svr], [Svc] or [Mlp]; never [Opaque] (those cannot be
    serialised, and the serialisable subset is what the floor ships). *)

val band : dim:int -> Stc.Guard_band.t QCheck.Gen.t
(** Single-model or tight/loose pair. *)

(* ---------------------------- journals ---------------------------- *)

val fingerprint : string QCheck.Gen.t
(** 16 lowercase hex digits — the shape {!Stc.Journal} requires. *)

val journal_entry : Stc.Journal.entry QCheck.Gen.t
(** Finite error in [0, 0.5], spec index in [0, 19]. *)

val journal : Stc.Journal.replay QCheck.Gen.t
(** 0–8 entries, complete or interrupted — both legal on-disk shapes
    of a journal. *)

(* ------------------------------ flows ----------------------------- *)

val flow : Stc.Compaction.flow QCheck.Gen.t
(** A full serialisable flow: generated specs, a random (possibly
    empty, possibly total) dropped subset, a band of matching
    dimensionality iff the dropped set is non-empty, guard fraction in
    [0, 0.01], random [measured_guard]. *)

val flow_with_rows : rows_per_flow:int ->
  (Stc.Compaction.flow * float array array) QCheck.Gen.t

(* --------------------- qcheck arbitraries ------------------------- *)

val arb_flow : Stc.Compaction.flow QCheck.arbitrary
(** Prints through {!Stc_floor.Flow_io.to_string}; shrinks by
    simplifying band models (drop support vectors, collapse a side to
    [Constant 1]) so failing flows minimise to readable ones. *)

val arb_flow_with_rows : rows_per_flow:int ->
  (Stc.Compaction.flow * float array array) QCheck.arbitrary
(** Shrinks the device rows (fewer rows first, then the flow's band) —
    the shape oracle counterexamples shrink along. *)
