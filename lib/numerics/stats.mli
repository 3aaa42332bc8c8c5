(** Descriptive statistics over float arrays. *)

val mean : float array -> float
(** Raises [Invalid_argument] on the empty array. *)

val variance : float array -> float
(** Unbiased (n-1) sample variance; 0 for arrays of length < 2. *)

val stddev : float array -> float

val min : float array -> float
val max : float array -> float

val quantile : float array -> float -> float
(** [quantile xs q] with [q] in [0,1]; linear interpolation between
    order statistics. The input is not modified. *)

val median : float array -> float

val correlation : float array -> float array -> float
(** Pearson correlation; 0 when either input is constant. *)

val histogram : float array -> bins:int -> lo:float -> hi:float -> int array
(** Counts per bin over [lo, hi); values outside the range are clamped
    into the first/last bin. Requires [bins > 0] and [lo < hi]. *)
