(** The [stc-net-1] wire protocol: newline-delimited requests and
    replies over a plain TCP stream, so any tester-floor data logger
    that can speak "one line out, read lines back" can bin devices
    against a served flow.

    Shape: every request is one line, space-separated; device rows
    travel as comma-separated decimal floats (the {!Stc_floor.Device_csv}
    cell syntax, full spec width — the server reads only kept columns
    for the model verdict and all columns for guard escalation). Every
    reply line is either [OK ...], [ERR <code> <message>], or a
    deferred [BIN <bin> <verdict>] binning verdict.

    Request/reply pairing: [BIN] replies are {e deferred} — the server
    accumulates pipelined rows and answers them in request order when
    the connection's batch flushes (size or deadline policy, or an
    explicit [FLUSH]). Every non-[BIN] request forces a flush first, so
    replies never overtake each other: a client that writes
    [BIN]*n + [FLUSH] reads exactly n verdict lines and then
    [OK flushed n].

    Multi-line payloads ([METRICS]) are byte-counted by their [OK]
    header, so a client can read the payload without sniffing for a
    terminator. *)

type request =
  | Ping
  | Flows                                  (** list registry contents *)
  | Info of string                         (** one flow's description *)
  | Bin of string * float array            (** deferred: flow, row *)
  | Batch of string * int                  (** [n] row lines follow *)
  | Flush                                  (** answer pending [Bin]s now *)
  | Metrics
      (** live registry export in the [stc-metrics-1] text format; the
          parser also accepts [METRICS text], the form older clients
          send *)
  | Stats of string                        (** one flow's engine counters *)
  | Reload of { flow : string; path : string option }
  | Health
      (** readiness probe: [OK health serving flows <n>], or
          [ERR draining] while the server drains *)
  | Quit                                   (** close this connection *)
  | Shutdown                               (** drain, then stop the server *)

val max_line_bytes : int
(** Upper bound on one request line (1 MiB); the server drops a
    connection that exceeds it mid-line rather than buffering without
    bound. *)

val flow_name_ok : string -> bool
(** Registry names are 1–64 chars of [A-Za-z0-9_.:-] — unambiguous in
    a space-separated line and safe in a metrics label. *)

val parse_request : string -> (request, string) result
(** Parses one request line (already stripped of its newline; a
    trailing [\r] is tolerated). Errors name the problem, not just the
    line. *)

val format_request : request -> string
(** The canonical line for a request (no newline) —
    [parse_request (format_request r) = Ok r]. A [Bin] row prints via
    {!format_row}. *)

val parse_row : string -> (float array, string) result
(** Comma-separated finite floats; the empty string is no cells (width
    0), which a width check then rejects against any real flow. *)

val format_row : float array -> string
(** [%.17g] cells, so verdicts survive the wire bit-for-bit. *)

val format_outcome : Stc_floor.Floor.outcome -> string
(** ["BIN <SHIP|SCRAP|RETEST> <GOOD|BAD|GUARD>"]. *)

val parse_outcome : string -> (Stc_floor.Floor.outcome, string) result

val ok_line : string -> string
(** ["OK " ^ detail]. *)

val err_line : code:string -> string -> string
(** ["ERR <code> <message>"], the message flattened to one line. *)

val parse_reply : string -> ([ `Ok of string | `Err of string * string ], string) result
(** Splits a non-[BIN] reply line into its [OK] detail or
    [ERR (code, message)]. *)
