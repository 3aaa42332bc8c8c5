(** Test-examination orderings for the greedy compaction loop
    (Sec. 3.2 discusses three strategies; the solution quality of the
    greedy procedure depends on this order). *)

type strategy =
  | Given of int array
      (** explicit order from device-functionality analysis (the
          paper's choice) *)
  | By_failure_count
      (** examine specs that reject the fewest training instances
          first — they are the cheapest to make implicit *)
  | By_correlation
      (** examine specs most correlated with some other spec first —
          their information is most available elsewhere *)
  | By_cluster of float
      (** single-linkage clustering of specs whose |correlation|
          exceeds the threshold; within each multi-member cluster every
          spec except a representative (the one rejecting the most
          devices, i.e. the most informative) is examined first, so the
          cluster's information survives in the representative *)
  | By_mutual_information
      (** learned drop order (the arXiv 2010.15240 direction): examine
          specs carrying the least histogram mutual information about
          the overall pass/fail verdict first ({!Stc_learn.Mi}) — their
          outcome is the most predictable from the rest *)

val compute : strategy -> Device_data.t -> int array
(** Returns a permutation of the spec indices. Raises
    [Invalid_argument] if a [Given] order is not a permutation. *)

val failure_counts : Device_data.t -> int array
(** Per-spec count of training instances that violate that spec. *)

val clusters : Device_data.t -> threshold:float -> int list list
(** Single-linkage clusters under |correlation| ≥ threshold, each
    sorted ascending, largest cluster first. *)

