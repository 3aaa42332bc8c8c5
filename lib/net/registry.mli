(** The server's versioned flow registry: many named trained flows
    (op-amp, MEMS-per-temperature, ...), each behind its own
    {!Stc_floor.Floor} engine — and therefore its own
    {!Stc_process.Pool} — so one flow's batches never queue behind
    another's.

    {b Hot reload atomicity.} [reload] parses the {e whole} new
    [stc-flow-1] file and computes its {!Stc_floor.Flow_io.fingerprint}
    before anything observable changes; a parse error leaves the
    current flow serving untouched. When the fingerprint equals the
    live one the reload is a no-op ([`Unchanged] — re-saving the same
    flow never churns engines) unless [force]d. A genuine swap builds
    the replacement engine first, then takes the entry's process lock —
    which an in-flight batch holds — so the old flow {e drains}: the
    swap waits for the running batch, every batch flushed before the
    swap is answered entirely by the old flow, every one after it
    entirely by the new flow, and no batch ever straddles the two. The
    old engine's pool is joined after the swap, off the lock.

    {b Circuit breaker.} Every entry carries a per-flow breaker over
    its engine. An engine exception during [process] counts as one
    failure; [failure_threshold] {e consecutive} failures trip the
    breaker to [Open]. While open, batches are not run at all: every
    row is answered [RETEST]/[GUARD] — the bin a guard device gets when
    it is queued for a later full-test station, so no accepted device
    is ever dropped — and counted in [stc_net_breaker_shed_rows_total]. When
    the cooldown (exponential: [cooldown_s * backoff^(trips-1)], capped
    at [max_cooldown_s]) elapses, the next batch {e auto-recycles} the
    engine (fresh {!Stc_floor.Floor.create}, stale pool joined off the
    lock) and runs as a [Half_open] probe: success closes the breaker,
    another exception re-trips it instantly. Failed batches still get a
    full set of replies; [Invalid_argument] (caller misuse) is reported
    as [Error] and never counts as an engine failure.

    Thread-safety: every operation may be called from any connection
    thread. Entries are never removed (a name is a stable route), so an
    [entry] handle stays valid for the registry's lifetime. *)

type t

type entry
(** One named flow slot; processing always uses the slot's {e current}
    flow and engine. *)

type breaker_state = Closed | Open | Half_open

val breaker_state_to_string : breaker_state -> string
(** ["closed" | "open" | "half-open"] — the wire/metrics spelling. *)

type breaker_config = {
  failure_threshold : int;  (** consecutive failures before tripping *)
  cooldown_s : float;       (** first cooldown *)
  cooldown_backoff : float; (** cooldown multiplier per lifetime trip *)
  max_cooldown_s : float;   (** cooldown ceiling *)
}

val default_breaker : breaker_config
(** 3 failures, 0.25 s cooldown doubling up to 30 s. *)

type status = {
  name : string;
  version : int;        (** 1 at [add]/[load], +1 per genuine reload *)
  fingerprint : string; (** of the current flow's canonical bytes *)
  source : string option;  (** the path reloads re-read *)
  specs : int;
  kept : int;
  breaker : breaker_state;
  breaker_failures : int;  (** consecutive failures so far (resets on success) *)
  breaker_trips : int;     (** lifetime trips (resets on reload/recycle) *)
  stats : Stc_floor.Floor.stats;
}

val create :
  ?floor_config:Stc_floor.Floor.config ->
  ?breaker:breaker_config ->
  unit ->
  t
(** [floor_config] (default {!Stc_floor.Floor.default_config}) is used
    for every engine the registry builds; [breaker] (default
    {!default_breaker}) for every entry's circuit breaker. Raises
    [Invalid_argument] on a non-positive threshold/cooldown or a
    backoff below 1. *)

val add : t -> name:string -> ?source:string -> Stc.Compaction.flow ->
  (entry, string) result
(** Registers a flow under [name] and spins up its engine. [Error] on a
    duplicate or invalid name, or a flow that cannot be fingerprinted
    (opaque band). *)

val load : t -> name:string -> path:string -> (entry, string) result
(** {!Stc_floor.Flow_io.load} + {!add} with [source = path]. *)

val find : t -> string -> entry option

val names : t -> string list
(** Sorted. *)

val list : t -> status list
(** One {!status} per entry, sorted by name. *)

val status : entry -> status

val name : entry -> string
val flow : entry -> Stc.Compaction.flow
(** The current flow (a reload may swap it between two calls). *)

val breaker : entry -> breaker_state
(** The breaker state as last written; an auto-recycle happens only
    inside [process], so [Open] may read [Open] even after the cooldown
    elapsed. *)

val recycle : entry -> unit
(** Manual engine recycle: swaps in a fresh engine built from the
    current flow (waiting for any in-flight batch), closes the breaker
    and resets its trip history, then joins the old engine's pool off
    the lock. Counted in [stc_net_breaker_recycles_total]. *)

val inject_engine_faults : entry -> int -> unit
(** Chaos failpoint: the next [n] [process] calls raise inside the
    engine attempt instead of binning, exactly as a crashing engine
    would — the batches are shed and the breaker sees real failures.
    [n = 0] clears the failpoint. Raises [Invalid_argument] on a
    negative [n]. Test harness API; never set in production paths. *)

val reload : ?force:bool -> ?path:string -> t -> name:string ->
  ([ `Reloaded of status | `Unchanged of status ], string) result
(** Re-reads the entry's flow file ([path] overrides, and on success
    replaces, the stored source) and swaps as described above. [force]
    (default false) swaps even when the fingerprint is unchanged —
    useful to prove the drain path or recycle an engine in place. A
    genuine swap also closes the breaker and resets its trip history:
    the old engine's failures say nothing about the fresh one.
    [Error] when the file cannot be read or parsed, when the entry has
    no source path, or on an unknown name; the serving state is then
    exactly as before. Counted in [stc_net_reloads_total] /
    [stc_net_reload_failures_total]. *)

val process :
  ?escalate:bool ->
  entry ->
  float array array ->
  (Stc_floor.Floor.outcome array, string) result
(** Bins one batch under the entry's process lock (batches from
    concurrent connections serialise per flow; different flows run in
    parallel). [escalate] (default true) runs {!Stc_floor.Floor.full_test}
    on guard-band rows — wire rows carry the full spec width. Rows
    whose width does not match the current flow produce [Error] (the
    whole batch is refused before any row is binned, mirroring
    [Floor.process]'s all-or-nothing width check). An engine exception
    feeds the circuit breaker (see above) and the batch is answered
    with [RETEST]/[GUARD] shed outcomes — still [Ok], still one reply
    per row. *)

val shutdown : t -> unit
(** Shuts down every engine. Idempotent; [process] afterwards returns
    [Error]. *)
