(** A small blocking client for the {!Protocol} line protocol — the
    reference implementation the tests, the smoke harness, the bench
    driver and [stc flow] tooling all speak through.

    One [t] is one TCP connection; calls are synchronous and must not
    be interleaved from multiple threads (use one client per thread —
    the server is built for many concurrent connections, not for
    multiplexed ones). Every call that touches the wire returns
    [Error] rather than raising on a server-side [ERR] reply; broken
    sockets raise [Unix.Unix_error] / [End_of_file] like any channel. *)

type t

val connect : ?host:string -> port:int -> unit -> t
(** Default host ["127.0.0.1"]. *)

val close : t -> unit
(** Closes the socket without the [QUIT] handshake; idempotent. *)

val send_line : t -> string -> unit
(** Low-level: one raw frame (the newline is appended). The QA fault
    harness uses this to send torn and malformed frames. *)

val recv_line : t -> string
(** Low-level: the next reply frame. Raises [End_of_file] when the
    server closed the stream. *)

val ping : t -> (unit, string) result

val bin_batch :
  t -> flow:string -> float array array -> (Stc_floor.Floor.outcome array, string) result
(** One [BATCH] request: header, the rows, then the per-row replies in
    order. The header and the rows go out in one write. A row the
    server refused surfaces as [Error] carrying that row's [ERR]
    message (remaining replies are still drained, so the connection
    stays usable). *)

val stream :
  t -> flow:string -> float array array -> (Stc_floor.Floor.outcome array, string) result
(** The same devices through the pipelined path: one [BIN] frame per
    row, then [FLUSH] (all in one write), then the deferred replies —
    this is the path that exercises the server's batching and
    backpressure machinery. *)

val metrics : t -> unit -> (string, string) result
(** The byte-counted [stc-metrics-1] payload, which
    {!Stc_obs.Registry.parse_text} reads. *)

val flows : t -> (string list, string) result
(** The [FLOW ...] description lines, one per registered flow. *)

val info : t -> flow:string -> (string, string) result
(** The [OK] detail line for one flow. *)

val stats : t -> flow:string -> (string, string) result

val health : t -> (string, string) result
(** Readiness probe: the [OK] detail line of [HEALTH]
    (["health serving flows <n>"]); [Error] while the server drains. *)

val reload :
  t -> flow:string -> ?path:string -> unit ->
  ([ `Reloaded | `Unchanged ] * string, string) result
(** The reload verdict plus the server's detail line. *)

val quit : t -> unit
(** [QUIT] handshake then {!close}; never raises. *)

val shutdown : t -> (unit, string) result
(** Asks the server process to stop (the connection closes with it). *)
