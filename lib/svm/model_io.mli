(** Text serialisation of trained models (SVMlight-style flat format),
    so a compacted test program can be trained once and shipped to the
    tester.

    Format: a header line per field, then one support vector per line
    ([coef v1 v2 ...]); everything round-trips through [%.17g] so
    decisions are bit-identical after reload. The readers return
    [Error] for a non-finite bias, coefficient, support-vector cell or
    kernel parameter, which [float_of_string] would accept, and for
    support vectors of different widths. *)

val svr_to_string : Svr.model -> string
val svr_of_string : string -> (Svr.model, string) result

val svc_to_string : Svc.model -> string
val svc_of_string : string -> (Svc.model, string) result

val kernel_to_string : Kernel.t -> string
val kernel_of_string : string -> (Kernel.t, string) result
