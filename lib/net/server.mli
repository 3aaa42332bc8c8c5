(** The persistent multi-client flow server: a long-lived TCP listener
    speaking the {!Protocol} line protocol, one blocking handler thread
    per connection, batches sharded across the {!Registry}'s per-flow
    engines.

    {b Batching.} Pipelined [BIN] rows accumulate per connection and
    flush as one {!Stc_floor.Floor} batch when (a) [flush_rows] rows
    are pending, (b) the oldest pending row is [flush_deadline_s] old
    (the handler waits in [select] with exactly that much timeout, so a
    trickling client still gets answers), or (c) any non-[BIN] request
    arrives. Replies preserve request order.

    {b Backpressure.} The pending queue is bounded by [max_pending]:
    reaching the bound forces a flush before the next read (counted in
    [stc_net_backpressure_stalls_total]), so a client that pipelines
    faster than the engine bins is throttled by TCP itself — the server
    simply stops reading — and per-connection memory stays bounded.

    {b Admission control and slow clients.} Connections beyond
    [max_connections] are shed with one [ERR busy] line and a clean
    close (counted in [stc_net_shed_total]); transient accept failures
    (EMFILE, ENFILE, ENOBUFS, ...) never kill the listener — they are
    counted in [stc_net_accept_errors_total] and retried after a pause
    of 10 ms, doubling per consecutive error up to 0.5 s. A connection
    that sends nothing for [idle_timeout_s] is reaped
    ([ERR idle-timeout], [stc_net_idle_reaped_total]), so slow-loris
    openers cannot pin handler threads; a client that stops
    {e reading} is torn down when a reply write makes no progress for
    [write_timeout_s] ([stc_net_write_timeouts_total]).

    {b Graceful drain.} {!drain} (or a client [SHUTDOWN], via {!wait})
    stops admitting connections and new work, but keeps answering:
    pending rows flush, an in-flight [BATCH] keeps reading and binning
    until the drain deadline, and only rows the client never delivered
    are answered [ERR draining] — no accepted device is ever dropped.
    Once every connection has ended, or [drain_deadline_s] elapses,
    {!wait} calls {!stop} and returns.

    {b Resilience.} Guard-band rows are escalated to
    {!Stc_floor.Floor.full_test}, a range check that cannot hang or
    fail, so binning raises only [Invalid_argument] on a bad batch,
    which is answered with [ERR] lines. Torn frames, oversized lines
    and mid-batch disconnects kill only their own connection.

    All deadlines (flush, idle, write, drain) are computed on
    {!Stc_obs.Clock.now}, so a wall-clock step (NTP, DST) never fires
    or starves them. *)

type config = {
  host : string;            (** bind address, default ["127.0.0.1"] *)
  port : int;
      (** in [0, 65535]; 0 picks an ephemeral port (see {!port}) *)
  max_connections : int;    (** concurrent clients, default 64 *)
  flush_rows : int;         (** batch flush threshold, default 256 *)
  flush_deadline_s : float; (** max age of a pending row, default 0.05 *)
  max_pending : int;        (** bounded pending-row queue, default 4096 *)
  idle_timeout_s : float;
      (** reap a connection with no request for this long (default
          300 s; [<= 0] or infinity disables) *)
  write_timeout_s : float;
      (** tear down a client whose replies make no progress for this
          long (default 30 s; [<= 0] or infinity disables) *)
  drain_deadline_s : float; (** drain budget, default 5 s (see {!drain}) *)
  sndbuf_bytes : int option;
      (** per-connection SO_SNDBUF (default [None]: OS default); tests
          shrink it to exercise the write deadline without megabytes of
          backlog *)
  escalate : bool;          (** full-test guard rows (default true) *)
}

val default_config : config

type t

val create : ?config:config -> Registry.t -> t
(** The registry is shared, not owned: {!stop} does not shut it down.
    Raises [Invalid_argument] on a [port] outside [0, 65535], a
    non-positive [flush_rows], [flush_deadline_s], [max_pending],
    [max_connections] or [sndbuf_bytes], a negative
    [drain_deadline_s], or a NaN in any of the four time fields.
    Infinity is allowed and means no bound. *)

val start : t -> unit
(** Binds, listens with a queue of 64 pending connections, and spawns
    the accept thread; returns immediately. Raises [Unix.Unix_error]
    when the address cannot be bound, and [Invalid_argument] if
    already started. Also sets the process-wide SIGPIPE disposition to
    ignore, so a client that disconnects mid-reply surfaces as [EPIPE]
    (per-connection teardown, counted in [stc_net_disconnects_total])
    instead of killing the process. *)

val port : t -> int
(** The bound port (resolves [port = 0]); raises [Invalid_argument]
    before {!start}. *)

val running : t -> bool

val shutdown_requested : t -> bool
(** True once a client has sent [SHUTDOWN]. *)

val drain : ?deadline_s:float -> t -> unit
(** Enters drain state (idempotent): new connections and new work get
    [ERR draining], in-flight work keeps flushing, and {!wait} stops
    the server when the last connection ends or after [deadline_s]
    (default [config.drain_deadline_s]), whichever is first. Safe from
    any thread and from signal context (two atomic stores). Raises
    [Invalid_argument] on a NaN [deadline_s]. *)

val draining : t -> bool

val wait : ?poll_s:float -> ?on_tick:(unit -> unit) -> t -> unit
(** Blocks until {!stop} is called, or a [SHUTDOWN] request / {!drain}
    completes (in which case it calls {!stop} itself once the drain
    deadline passes or every connection has ended). [on_tick] (with
    [poll_s] period, default 0.1 s) runs between polls on the waiting
    thread — the CLI uses it to service signal-driven reloads and
    drains outside signal context. *)

val stop : t -> unit
(** Stops accepting, shuts down every live connection socket, joins the
    accept and connection threads. Idempotent; safe from any thread
    except a connection handler's own. *)

val with_server : ?config:config -> Registry.t -> (t -> 'a) -> 'a
(** [create] + [start], run the callback, always [stop]. *)
