(** FIFO cache for kernel-matrix rows: SMO touches rows repeatedly, and
    recomputing a row costs O(l·d). *)

type t

val create : row_bytes:int -> ?budget_bytes:int -> (int -> float array) -> t
(** [create ~row_bytes f] caches results of [f]. At most
    [budget_bytes / row_bytes] rows are kept (default budget 64 MB, at
    least 16 rows). *)

val get : t -> int -> float array

val hits : t -> int
val misses : t -> int
