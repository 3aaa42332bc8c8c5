(** Text embedding of {!Guard_band.model} values inside line-oriented
    container formats ([stc-flow-1]/[stc-flow-2] bands, [stc-journal-1]
    step predictors).

    A model embeds as one ["model <family> ..."] header line followed,
    for SVR/SVC/MLP, by the family's own body verbatim
    ({!Stc_svm.Model} or {!Stc_learn.Mlp}) with its line count in
    the header — so a container can skip or extract the body without
    understanding it. The body's first line is the family's own tag
    (e.g. [stc-svr-1]); {!parse} checks it against the header family
    {e before} reading the rest of the body and fails fast with a
    line-numbered error on mismatch. *)

val all_families : string list
(** [["constant"; "svr"; "svc"; "mlp"]] *)

val legacy_families : string list
(** The families an [stc-flow-1] container may hold:
    [["constant"; "svr"; "svc"]]. *)

val to_text : Guard_band.model -> (string, string) result
(** The embedded form, ending with a newline. [Error] for
    {!Guard_band.Opaque} (a bare closure carries no model data). *)

val parse :
  ?families:string list -> Textio.cursor -> (Guard_band.model, string) result
(** Consumes one embedded model from the cursor. [families] (default
    {!all_families}) restricts which family tokens the surrounding
    container admits — an [stc-flow-1] reader passes
    {!legacy_families} so an MLP model under a v1 header is rejected
    at the model line with a precise error. *)
