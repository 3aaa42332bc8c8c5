(** FIFO cache for kernel-matrix rows: SMO touches rows repeatedly, and
    recomputing a row costs O(l·d). Each lookup counts as a hit or a
    miss in the [stc_svm_cache_hits_total] / [stc_svm_cache_misses_total]
    registry counters. *)

type t

val create : row_bytes:int -> ?budget_bytes:int -> (int -> float array) -> t
(** [create ~row_bytes f] caches results of [f]. At most
    [budget_bytes / row_bytes] rows are kept (default budget 64 MB, at
    least 16 rows). *)

val get : t -> int -> float array
