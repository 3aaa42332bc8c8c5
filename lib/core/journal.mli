(** A write-ahead journal for the greedy compaction loop.

    Each candidate examination trains an SVM — the dominant cost of the
    whole procedure — and a crash used to discard all of them. The
    journal records every decided step (spec examined, accept/reject,
    prediction error) to disk, flushed before the loop advances, so a
    killed run resumes by replaying the recorded decisions instead of
    retraining ({!Compaction.greedy}). The decisions alone
    suffice: every training input is a deterministic function of the
    decisions so far, so a resumed run produces a flow bit-identical to
    an uninterrupted one — the trained models themselves never need to
    be persisted.

    Format [stc-journal-1], line-oriented in the [stc-flow-1] style
    ({!Textio}):
    {v
stc-journal-1
fingerprint <16 hex digits>
step <seq> <spec_index> <accepted 0|1> <error>
...
done <n_steps>
v}
    A journal without its [done] trailer is a valid crash artefact: it
    replays as an incomplete run. A final record cut inside write(2) is
    the other legal crash shape; {!recover} salvages the intact prefix.
    Everything else — mid-file damage, a mutated record — is corruption
    and is rejected with its line number. The [fingerprint] binds the
    journal to one (config, training data, examination order) triple so
    a journal can never silently resume a different run. *)

type entry = {
  spec_index : int;
  accepted : bool;
  error : float;  (** e_p measured for this candidate *)
}

val fingerprint_hex : string -> string
(** 64-bit FNV-1a of a canonical byte string, as 16 hex digits. *)

(* ------------------------------ writing --------------------------- *)

type writer

val create : path:string -> fingerprint:string -> (writer, string) result
(** Truncates [path] and writes the header; every {!append} is flushed
    to the OS before it returns (write-ahead discipline). *)

val open_append : path:string -> fingerprint:string -> (writer, string) result
(** Continues an existing incomplete journal after validating that its
    fingerprint matches. [Error] if the file is corrupt, complete, or
    was written for a different run. *)

val entries_written : writer -> int

val append : writer -> entry -> (unit, string) result
(** Serialises and flushes one step. [Error] if the write fails. *)

val finish : writer -> (unit, string) result
(** Writes the [done] trailer; the journal is then complete and can no
    longer be appended to. *)

val close : writer -> unit
(** Idempotent. A journal closed without {!finish} replays as an
    incomplete run. *)

(* ------------------------------ reading --------------------------- *)

type replay = {
  fingerprint : string;
  entries : entry array;  (** in examination order *)
  complete : bool;        (** the [done] trailer was present *)
}

val of_string : string -> (replay, string) result
(** Strict except for the one crash shape it must tolerate: end of
    input at a record boundary (missing [done]). Every other defect —
    an unterminated final line (a record cut mid-write, even when its
    prefix parses), a bad field, trailing content after [done] — is an
    [Error] carrying the line number. *)

val to_string : replay -> string
(** Canonical text ([of_string] ∘ [to_string] = id; used by the QA
    round-trip law and to build truncated-run artefacts in tests). *)

val load : path:string -> (replay, string) result
(** Reads and parses [path] with the strict {!of_string}. *)

val recover : path:string -> (replay * int, string) result
(** Like {!load}, but salvages the second legal crash artefact: a final
    record cut inside write(2), recognisable as a last line with no
    terminating newline whose removal leaves a strictly valid journal.
    The file is truncated to that intact prefix so {!open_append}
    continues at a record boundary; returns the replay and the number
    of bytes dropped (0 when the journal was already intact). Mid-file
    corruption is still rejected with the strict parser's error. *)
