(** The test-floor serving engine: loads a compacted flow (trained by
    {!Stc.Compaction.greedy}, persisted by {!Flow_io}) and bins a stream
    of device measurement rows in configurable batches across a
    persistent {!Stc_process.Pool} of worker domains. It is the
    deployed tester of Sec. 3.3/4.2: measure the kept specs, consult
    the guard-banded model, send guard-band parts to the full test.

    Verdicts are bit-identical to calling
    {!Stc.Compaction.flow_verdict} row by row, regardless of batch size
    and domain count: each row's verdict depends only on the row, and
    guard escalation runs in row order on the submitting domain.

    The retest callback stands for the full-test station. Every serving
    front end passes {!full_test}, a range check over columns the row
    already holds, so escalation cannot hang or fail, and {!process}
    raises only [Invalid_argument], on caller misuse. Fault tolerance
    for serving lives in the network server (drain, admission control,
    per-connection teardown), not here. *)

type config = {
  batch_size : int;  (** devices classified per pool dispatch *)
  domains : int;     (** total parallelism, incl. the calling domain *)
}

val default_config : config
(** 256-device batches, single domain. *)

(** Where a device goes: [Ship] to the customer, [Scrap] to the bin,
    or [Retest] — a guard-band part queued for the full-test station
    because {!process} ran without a [retest] callback. On the wire
    these are [SHIP], [SCRAP] and [RETEST]. *)
type bin = Ship | Scrap | Retest

type outcome = {
  bin : bin;
  verdict : Stc.Guard_band.verdict;
}

type stats = {
  devices : int;
  shipped : int;
  scrapped : int;
  retested : int;     (** guard verdicts routed to full test *)
  batches : int;
  elapsed_s : float;  (** total time spent inside {!process} batches *)
  last_batch_s : float;
}

type t

val create : ?config:config -> Stc.Compaction.flow -> t
(** Spawns the worker pool once; reuse the engine across many calls to
    {!process} and {!shutdown} it when the lot is finished. *)

val flow : t -> Stc.Compaction.flow
val config : t -> config

val full_test : Stc.Compaction.flow -> float array -> bool
(** The complete specification test on a full-width measurement row:
    true iff every spec (kept and dropped) passes its acceptance range.
    This is the retest-station stand-in every serving front end uses
    when the data source already carries all columns (`stc serve`'s
    CSV, the network server's wire rows) — exposed here so they share
    one definition. False (never raises) on a width mismatch. *)

val process :
  ?retest:(float array -> bool) -> t -> float array array -> outcome array
(** Bins each row: model-confident parts ship or scrap directly;
    guard-band parts are escalated to [retest] — the full (adaptive)
    specification test, [true] = part passes and ships. Without a
    callback guard parts are binned [Retest] for a later station. Rows
    must have the flow's spec count (only kept columns are read).
    Raises [Invalid_argument] on width mismatch or after
    {!shutdown}; the call is then refused before any row is binned and
    {!stats} does not move. An exception raised by [retest] propagates
    to the caller: the [batch_size] batch it interrupted is not
    counted (earlier batches of the call are), and the engine stays
    usable.

    Non-finite measurements (NaN/±inf, e.g. from a data-logger glitch)
    in a kept column never pass a range check, so such a device
    deterministically bins [Scrap]. Both outside entry points refuse
    them before they get here: {!Device_csv} and the wire protocol's
    row parser. *)

val stats : t -> stats
(** Cumulative since creation. Each count is a lock-free read of an
    atomic {!Stc_obs.Registry.Counter}; the same events are mirrored
    into the global registry as [stc_floor_devices_total],
    [stc_floor_shipped_total], [stc_floor_scrapped_total],
    [stc_floor_retested_total] and [stc_floor_batches_total], with
    per-batch latency in the [stc_floor_batch_s] histogram. *)

val throughput : t -> float
(** Devices per second over the accumulated batch time. *)

val report : t -> string
(** Counter table via {!Stc.Report.table}. *)

val shutdown : t -> unit
(** Joins the worker domains. Idempotent. *)

val with_engine : ?config:config -> Stc.Compaction.flow -> (t -> 'a) -> 'a
