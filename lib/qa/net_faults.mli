(** Fault injection for the {!Stc_net} serving stack: a real loopback
    server under attack from misbehaving clients.

    Each check boots a throwaway registry + server on an ephemeral
    loopback port, runs its attack, and asserts the server contract:
    abuse kills at most the abusing connection — a fresh client must
    still get verdicts {e bit-identical} to an offline
    {!Stc_floor.Floor.process} run over the same flow, and the process
    must never see an uncaught exception. Checks return
    [(unit, string) result], like the {!Faults} checks; the [net faults]
    suite in [test/test_net.ml] runs them all.

    There is no crashing-engine check: {!Stc_floor.Floor.process}
    raises only [Invalid_argument], which the server answers with [ERR]
    lines, so every attack here comes from the client side. Nor is
    there a hot-reload check: the [net server] case "concurrent clients
    stay bit-identical across a live hot reload" forces swaps under
    four clients on both the [BATCH] and [BIN] paths. *)

val check_torn_frames :
  Stc.Compaction.flow * float array array -> (unit, string) result
(** Dribbles a valid request one byte at a time (the framing layer must
    reassemble it), sends a garbage verb (typed [ERR bad-request], the
    connection stays usable), and abandons a connection mid-frame with
    no trailing newline (counted as a torn frame, nothing else
    disturbed). The surviving connection's verdicts must equal the
    offline reference. *)

val check_mid_batch_disconnect :
  Stc.Compaction.flow * float array array -> (unit, string) result
(** Declares [BATCH n] and disconnects after sending [n / 2] rows.
    Only that connection dies: a fresh client then runs the full batch
    and must match the offline reference. [Error] for fewer than 2
    rows, which would test nothing. *)

val check_slow_loris :
  Stc.Compaction.flow * float array array -> (unit, string) result
(** Opens a connection, trickles a partial frame, then goes silent
    against a server with a short idle deadline. The connection must be
    reaped ([ERR idle-timeout] then a close, counted in
    [stc_net_idle_reaped_total]) while a live client on the same server
    still matches the offline reference. *)

val check_reply_ignorer :
  Stc.Compaction.flow * float array array -> (unit, string) result
(** Sends a huge batch and never reads a reply byte, with the server's
    send buffer and the attacker's receive window both squeezed so the
    replies jam quickly. The server must tear the connection down via
    its write deadline ([stc_net_write_timeouts_total]) instead of
    wedging a handler thread, and a fresh client must still match the
    offline reference. *)

val check_connection_flood :
  Stc.Compaction.flow * float array array -> (unit, string) result
(** Opens 4x [max_connections] at once. Exactly [max_connections] are
    admitted (they answer [PING]); every surplus connection is shed
    with one [ERR busy] line and a clean close, counted in
    [stc_net_shed_total]. Once the flood releases its slots a fresh
    client must be admitted and match the offline reference. *)
