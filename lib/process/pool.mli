(** A multicore worker pool over OCaml 5 domains.

    One pool owns [domains - 1] helper domains parked on a condition
    variable. The submitting domain participates in every job, so
    [domains = 1] degrades to plain sequential execution with no domain
    spawned. Tasks are claimed by atomic index increment (work
    stealing), so the assignment of task index to domain is
    nondeterministic — callers must make each task's effect depend only
    on its index (as {!Montecarlo.generate_parallel} does with
    per-instance RNG streams) for results to be reproducible.

    Drives the Monte-Carlo generator ({!Montecarlo}) and the floor
    serving engine's batches ([Stc_floor.Floor]), which reuses one pool
    across many batches instead of paying domain spawn latency per
    batch. *)

type t

val create : domains:int -> t
(** Spawns [domains - 1] helper domains immediately. Raises
    [Invalid_argument] when [domains < 1]. *)

val domains : t -> int
(** Total parallelism including the submitting domain. *)

val run : t -> n:int -> (int -> unit) -> unit
(** [run t ~n f] executes [f 0 .. f (n-1)] across the pool and returns
    when all have finished. [n = 0] is a no-op. If any task raises, the
    first exception is re-raised in the submitter after the remaining
    tasks are drained; the failure is not sticky — the pool stays
    usable and the next [run] starts with a clean error slot (verified
    by [Stc_qa.Faults.check_pool_worker_failure]). Not reentrant: one
    job at a time per pool, and a second [run] while one is in flight
    (a task calling [run] on its own pool included) raises
    [Invalid_argument]. Raises [Invalid_argument] after {!shutdown}.

    Every [run] records [stc_pool_jobs_total], [stc_pool_tasks_total]
    and the [stc_pool_queue_wait_s] / [stc_pool_job_s] latency
    histograms in {!Stc_obs.Registry.global}. *)

val shutdown : t -> unit
(** Joins the helper domains. Idempotent; the pool cannot be reused. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create], run the callback, always [shutdown]. *)
