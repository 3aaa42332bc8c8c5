(** Deterministic fault injection for the compaction → serving stack.

    Three fault surfaces, each driven by an explicit {!Stc_numerics.Rng}
    seed so every failure replays:
    - serialized flows: truncation, byte mutation, line deletion or
      duplication, version skew;
    - device rows: NaN / ±inf cells, empty and ragged rows, both as raw
      arrays fed to {!Stc_floor.Floor} and as CSV text fed to
      {!Stc_floor.Device_csv};
    - pool workers: tasks that raise mid-job or stall, submitted to
      {!Stc_process.Pool}.

    Every check asserts the contract the stack must keep under attack:
    a typed [Error _] / documented [Invalid_argument], or graceful
    degradation (deterministic verdicts, a reusable pool) — never an
    uncaught exception out of the public API. Checks return
    [(unit, string) result] so they compose with {!Oracle} checks in
    the test suite. *)

module Rng = Stc_numerics.Rng

(* ------------------------- corrupted flows ------------------------ *)

type flow_fault =
  | Truncate of int        (** keep only the first [n] bytes *)
  | Mutate_byte of int * char  (** overwrite byte [i] *)
  | Delete_line of int
  | Duplicate_line of int
  | Version_skew of string (** replace the header line *)

val describe_flow_fault : flow_fault -> string

val apply_flow_fault : flow_fault -> string -> string

val random_flow_fault : Rng.t -> string -> flow_fault
(** A fault valid for the given serialized text (offsets in range). *)

val check_flow_corruption :
  Rng.t -> trials:int -> Stc.Compaction.flow -> (int * int, string) result
(** Applies [trials] random faults to the flow's serialized form and
    feeds each to {!Stc_floor.Flow_io.of_string}. Every outcome must be
    a typed [Error] (counted first) or — when the mutation happens to
    leave a well-formed file — an [Ok] flow that re-serialises
    canonically (counted second). Any raised exception, or an accepted
    flow that fails the canonicality law, fails the check. *)

val check_version_skew : Stc.Compaction.flow -> (unit, string) result
(** A future version header must be rejected with an error that names
    the unsupported version, and a truncated file with one that says
    the file is truncated. *)

val random_journal_fault : Rng.t -> string -> flow_fault
(** As {!random_flow_fault}, with journal version strings — journals
    share the line-oriented text shape, so the fault algebra is the
    same. *)

val check_journal_corruption :
  Rng.t -> trials:int -> Stc.Journal.replay -> (int * int, string) result
(** Applies [trials] random faults to the journal's serialized form and
    feeds each to {!Stc.Journal.of_string}: typed [Error] (counted
    first) or a canonically re-serialising [Ok] (counted second; cuts
    at record boundaries are legal crash artefacts and land here) —
    never an exception. *)

val check_journal_truncation : unit -> (unit, string) result
(** The journal loader's contract at its edges, on a fixed 3-entry
    journal: a future version header is rejected naming the version; a
    cut at a record boundary loads as an incomplete run; a cut inside a
    record and an out-of-order step sequence are rejected with line
    numbers. *)

(* --------------------------- device rows -------------------------- *)

type row_fault =
  | Nan_cell of int
  | Pos_inf_cell of int
  | Neg_inf_cell of int
  | Empty_row
  | Ragged of int  (** resize the row to [n] cells *)

val describe_row_fault : row_fault -> string

val apply_row_fault : row_fault -> float array -> float array

val random_row_fault : Rng.t -> width:int -> row_fault

val check_csv_rejects_bad_rows :
  Rng.t -> trials:int -> specs:Stc.Spec.t array -> rows:float array array ->
  (unit, string) result
(** Hand-writes CSV text containing faulted rows;
    {!Stc_floor.Device_csv.read} must return a typed [Error] naming the
    offending line for every non-finite, ragged, or non-numeric row
    (empty rows are documented to be skipped as blank lines). *)

val check_floor_bad_rows :
  Rng.t -> trials:int -> Stc.Compaction.flow -> (unit, string) result
(** Feeds faulted rows straight to {!Stc_floor.Floor.process}: width
    mismatches must raise [Invalid_argument] (the documented typed
    error); non-finite cells must either be rejected by
    [~strict:true] or, by default, degrade to a deterministic verdict —
    the same verdict on every repeat, equal to the reference binner's. *)

(* --------------------------- pool workers ------------------------- *)

val check_pool_worker_failure : domains:int -> (unit, string) result
(** A task raising mid-job must surface as that exception (not a hang,
    not a crash of the helper domain), the remaining tasks must drain,
    and the same pool must then run a clean job of a different shape to
    completion. *)

val check_pool_worker_delay : domains:int -> delay_s:float -> (unit, string) result
(** A stalling task must not lose or duplicate work: every task still
    runs exactly once, and so does every task of the next job on the
    same pool. *)

val check_pool_misuse : unit -> (unit, string) result
(** Zero-task jobs are no-ops; [run] after [shutdown] and invalid
    domain counts raise [Invalid_argument]; [shutdown] is idempotent. *)

val check_pool_deadline : domains:int -> (unit, string) result
(** The supervision contract of [Pool.run ~deadline_s]: an in-time
    supervised job runs every task exactly once; a job with a stalled
    (1.5 s sleeping) task raises [Pool.Timeout] long before the stall
    clears; the timeout and the respawned worker show in [Pool.stats];
    and the same pool then runs both a plain and a supervised job to
    completion while the abandoned domain is still asleep. *)

(* ------------------------ degraded serving ------------------------ *)

val check_floor_flaky_retest : fail_first:int -> (unit, string) result
(** A retest callback that raises on its first [fail_first] calls and
    then succeeds: with a retry budget of [fail_first + 2] the device
    must ship, [stats.retries] must equal [fail_first], and the engine
    must not be degraded. *)

val check_floor_degraded : classify_permanent:bool -> (unit, string) result
(** A retest callback that always raises: every guard device is binned
    [Retest] (none dropped), counted [degraded], the engine latches
    degraded mode with positive throughput, later batches shed without
    calling the dead station, and [reset_stats] restores normal
    operation with zeroed counters. With [classify_permanent] the
    policy stops at the first attempt (no retries); otherwise the
    transient budget is exhausted first. *)

val check_floor_batch_deadline : unit -> (unit, string) result
(** A slow (30 ms) but healthy retest against a 50 ms batch deadline:
    early devices ship, devices past the deadline are shed as
    [degraded], nothing is dropped, and the deadline does not latch
    degraded mode. *)
