(** The process clock every deadline computes against.

    [now] is {e monotonic}: seconds since an arbitrary epoch (boot
    time on Linux), immune to NTP steps and manual clock changes, so
    [deadline = now () +. timeout_s] can never fire early or hang late
    because the wall clock jumped. [wall] is the calendar clock for
    timestamps meant to be read by humans or correlated across
    machines.

    Rule of thumb (enforced by convention across the tree): arithmetic
    on {e durations} — deadlines, timeouts, elapsed measurements —
    uses {!now}; anything printed as a date uses {!wall}. Never mix the two: they have different epochs. *)

val now : unit -> float
(** Monotonic seconds. Backed by [clock_gettime(CLOCK_MONOTONIC)]; on
    the (never observed) platforms where that fails it falls back to
    [Unix.gettimeofday], preserving behaviour rather than refusing to
    run. *)

val monotonic : bool
(** Whether {!now} is genuinely monotonic on this platform (i.e. the
    [CLOCK_MONOTONIC] stub works). Exposed so tests can assert the
    strong property only where it holds. *)

val wall : unit -> float
(** [Unix.gettimeofday] — calendar time, for display only. *)
