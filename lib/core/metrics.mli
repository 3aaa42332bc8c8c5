(** Outcome accounting, with the paper's Sec. 5.1 definitions:
    yield loss = good devices the flow binned bad, defect escape = bad
    devices binned good, guard = devices sent to full (adaptive) test.
    Percentages are over all tested devices, matching Table 3. *)

type counts = {
  total : int;
  truth_good : int;
  truth_bad : int;
  escapes : int;       (** truth bad, binned Good *)
  losses : int;        (** truth good, binned Bad *)
  guards : int;        (** binned Guard *)
  correct_good : int;  (** truth good, binned Good *)
  correct_bad : int;   (** truth bad, binned Bad *)
}

val empty : counts

val record : counts -> truth_good:bool -> Guard_band.verdict -> counts

val tally : truth:bool array -> verdicts:Guard_band.verdict array -> counts

val escape_pct : counts -> float
val loss_pct : counts -> float
val guard_pct : counts -> float
val yield_pct : counts -> float
(** Truth yield of the population. *)

val prediction_error_pct : counts -> float
(** (escapes + losses) / total · 100. *)
