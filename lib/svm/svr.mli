(** ε-support-vector regression — the paper's "ε-SVM". The compaction
    flow trains it on ±1 pass/fail targets and classifies by the sign
    of the regression function (Sec. 2.2 of the paper). *)

val train :
  ?c:float ->
  ?epsilon:float ->
  ?gamma:float ->
  ?eps:float ->
  x:float array array ->
  y:float array ->
  unit ->
  Model.t
(** The regression estimate is {!Model.decision}, its sign
    {!Model.classify}. [epsilon] is the insensitive-tube half-width
    (default 0.1); [eps] the SMO stopping tolerance (default 1e-3);
    other defaults as in {!Svc.train}. *)
