(** Deterministic, splittable pseudo-random generator (splitmix64).

    All stochastic behaviour in the library flows through an explicit
    [Rng.t] so that every experiment is reproducible from a seed, and
    independent sub-streams (e.g. one per Monte-Carlo instance) can be
    derived with {!split} without correlation. *)

type t

val create : int -> t
(** [create seed] initialises a generator from a seed. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. *)

val uint64 : t -> int64
(** Next raw 64-bit output. *)

val mix : int64 -> int64
(** The splitmix64 finaliser that {!uint64} applies to each state: a
    bijection on 64-bit words in which every input bit flips about half
    the output bits. Exposed to hash structured keys into seeds, as
    [Stc_process.Montecarlo.instance_rng] does. *)

val float : t -> float
(** Uniform in [0, 1). *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [lo, hi). Requires [lo <= hi]. *)

val normal : t -> float
(** Standard normal via Box–Muller (fresh pair per call as needed). *)

val gaussian : t -> mean:float -> sigma:float -> float

val int : t -> int -> int
(** [int t n] is uniform in [0, n-1]. Requires [n > 0]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element. Raises [Invalid_argument] on empty arrays. *)
