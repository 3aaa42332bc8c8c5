(** Device measurement rows as CSV: one header line of spec names, then
    one device per line, values in [%.17g] so a written population reads
    back bit-identical. The interchange format between the tester's data
    logger and the {!Floor} serving engine. *)

val write :
  path:string -> specs:Stc.Spec.t array -> rows:float array array -> unit
(** Raises [Invalid_argument] on a row-width mismatch or a non-finite
    cell (a NaN/inf would survive [%.17g] and poison the reader),
    [Sys_error] on an unwritable path or a failed write, the flush at
    close included. *)

val read : path:string -> (string array * float array array, string) result
(** Header names and device rows. All rows must have the header's
    width and every cell must parse as a {e finite} float — NaN/inf
    cells (which [float_of_string] would otherwise accept) and width
    mismatches produce a ["line %d, column %d"]-prefixed error naming
    the offending cell (line numbers are physical, 1-based). Blank
    lines (including a CRLF-only line) are skipped — the documented
    degradation for trailing newlines from external loggers.

    Implemented as a fold over {!open_reader}/{!next}, so it shares the
    streaming parser; use the reader directly when only batch-sized
    chunks are consumed at a time. *)

(** {1 Streaming}

    A pull-based row reader for consumers that bin devices in batches —
    the network server and [stc serve --input -] — so a full floor run
    is never materialised in memory: peak residency is one batch. *)

type reader

val open_reader : path:string -> (reader, string) result
(** Opens the file and consumes the header line. [Error] on an
    unreadable path or an empty file (["empty CSV"]). *)

val reader_of_channel : ?owns_channel:bool -> in_channel -> (reader, string) result
(** As {!open_reader} over an already-open channel (e.g. [stdin]).
    [owns_channel] (default false) transfers the channel to the reader:
    {!close_reader} then closes it. *)

val header : reader -> string array
(** The header's column names (a copy). *)

val next : reader -> (float array option, string) result
(** The next device row, [Ok None] at end of input. Errors are exactly
    {!read}'s, with physical line numbers; an error does not close the
    reader, but rows after a malformed line are suspect — callers
    should stop (as {!read} does). *)

val next_batch : reader -> max:int -> (float array array, string) result
(** Up to [max] rows ([[||]] only at end of input). Raises
    [Invalid_argument] when [max < 1]. *)

val close_reader : reader -> unit
(** Idempotent; closes the underlying channel iff the reader owns it. *)
