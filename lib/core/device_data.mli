(** Measured specification data for a population of device instances,
    together with the specification definitions. Rows are instances,
    columns are specifications. *)

type t

val make : specs:Spec.t array -> values:float array array -> t
(** Raises [Invalid_argument] on column-count mismatches. The result is
    unweighted; {!of_montecarlo} is the one constructor that carries
    importance weights. *)

val specs : t -> Spec.t array
val values : t -> float array array
val n_instances : t -> int
val n_specs : t -> int

val value : t -> instance:int -> spec:int -> float
val instance_row : t -> int -> float array
val spec_column : t -> int -> float array

val normalized_row : t -> instance:int -> keep:int array -> float array
(** Normalised (range ↦ [0,1]) values of the kept specifications for
    one instance — the SVM feature vector after compaction removed the
    other columns. *)

val features : t -> keep:int array -> float array array

val passes_all : t -> instance:int -> bool
val passes_subset : t -> instance:int -> subset:int array -> bool

val pass_labels : t -> subset:int array -> int array
(** +1 if the instance passes every spec in [subset], −1 otherwise. *)

val pass_labels_with : t -> specs:Spec.t array -> subset:int array -> int array
(** As {!pass_labels} but judging against alternative (e.g. guard-band
    perturbed) spec definitions, index-aligned with the data's specs. *)

val yield_fraction : t -> float
(** Fraction of instances passing every specification (unweighted). *)

val weighted_yield_fraction : t -> float
(** Self-normalised importance estimate [Σ wᵢ·passᵢ / Σ wᵢ] of the
    population yield; equals {!yield_fraction} for uniform data. *)

val of_montecarlo : specs:Spec.t array -> Stc_process.Montecarlo.dataset -> t
(** Carries the dataset's importance weights when any differ from 1.0;
    uniform datasets produce an unweighted [t]. Raises
    [Invalid_argument] unless there is exactly one finite non-negative
    weight per instance. *)
