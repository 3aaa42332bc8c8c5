(** Soft-margin C-support-vector classification. *)

val train :
  ?c:float ->
  ?gamma:float ->
  ?eps:float ->
  x:float array array ->
  y:int array ->
  unit ->
  Model.t
(** Trains on inputs [x] with labels [y] (each ±1); classify with
    {!Model.classify}. Defaults: [c = 1.0], the RBF kernel's [gamma]
    from {!Kernel.median_gamma} of [x], [eps = 1e-3]. Raises
    [Invalid_argument] on empty data, ragged rows, labels outside
    {−1, +1} or a single class. *)
