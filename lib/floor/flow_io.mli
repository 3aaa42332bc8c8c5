(** Serialisation of a full compacted flow — specs and ranges, kept and
    dropped indices, the guard-band model pair, guard fraction — in a
    versioned extension of {!Stc_svm.Model}'s flat text format, so a
    flow trained once can be shipped to the production floor and served
    by {!Floor}.

    The format is byte-stable: for any [s] produced by {!to_string},
    [to_string (of_string s) = Ok s], and a reloaded flow reproduces the
    original's verdicts bit-for-bit (floats round-trip through
    [%.17g]). Bands built from closures ({!Stc.Guard_band.Opaque}, e.g.
    adaptive-guard bands) cannot be serialised and yield [Error]. *)

val version : string
(** The legacy header tag, ["stc-flow-1"] — SVR/SVC/constant bands
    only. *)

val version2 : string
(** The multi-model-family header tag, ["stc-flow-2"]: same container
    layout, but bands may additionally hold {!Stc.Guard_band.Mlp}
    models. *)

val version_of_flow : Stc.Compaction.flow -> string
(** The header {!to_string} will write for this flow: {!version2} iff
    a band model needs it (MLP family), {!version} otherwise — so
    flows expressible in the legacy format keep their exact legacy
    bytes and fingerprints. *)

val to_string : Stc.Compaction.flow -> (string, string) result
(** [Error] for an opaque band and for a guard fraction outside
    [[0, 1)], which {!of_string} would refuse. *)

val of_string : string -> (Stc.Compaction.flow, string) result
(** Reads both {!version} and {!version2} headers. Errors are
    descriptive and ["line %d"]-prefixed: a header from a newer writer
    reports ["unsupported flow version %S"], an MLP model under a
    legacy [stc-flow-1] header is rejected at its model line, a file
    cut short mid-record reports that the flow text is truncated at
    the line where input ran out, non-finite floats (which
    [float_of_string] would accept) are rejected, [guard_fraction]
    must lie in [[0, 1)], the kept/dropped index lists must
    partition the spec indices, and a band model's input width (SVR or
    SVC support-vector width, MLP input size) must equal the kept
    count. *)

val fingerprint : Stc.Compaction.flow -> (string, string) result
(** 16 hex digits over the canonical serialised form
    ({!Stc.Journal.fingerprint_hex} of {!to_string}): two flows get the
    same fingerprint iff they serialise byte-identically, so the network
    registry ([Stc_net.Registry]) can tell a genuinely new flow from a
    re-save of the current one before swapping engines. [Error] exactly
    when {!to_string} fails. *)

val save : path:string -> Stc.Compaction.flow -> (unit, string) result
(** Writes {!to_string}'s bytes to [path]. A [Sys_error] — an
    unwritable path, or a failed write, the flush at close included —
    comes back as [Error], so a short file is never reported saved. *)

val load : path:string -> (Stc.Compaction.flow, string) result
(** {!of_string} on the file's bytes; [Sys_error]s (missing file,
    permissions) come back as [Error] rather than raising. *)
