(** A minimal JSON reader/writer — just enough for the metric exporter
    behind the network serving tier's [METRICS] scrape endpoint, and
    for reading that export back, so neither pulls in an external JSON
    dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val num_to_string : float -> string
(** Shortest decimal that reads back to the same float; non-finite
    values (which JSON cannot carry) render as [null]. *)

val to_string : ?indent:bool -> t -> string
(** [indent] (default true) pretty-prints with two-space indentation;
    strings are escaped per RFC 8259. *)

val of_string : string -> (t, string) result
(** Parses one RFC 8259 JSON value (objects keep field order, duplicate
    keys are kept as-is). For any [t] whose numbers are finite,
    [of_string (to_string t) = Ok t]. Errors are ["byte %d: %s"]-
    prefixed; trailing non-whitespace content is rejected. [\u] escapes
    decode to UTF-8 (surrogate pairs combined). *)

val member : string -> t -> t option
(** First field of that name when the value is an [Obj]; [None]
    otherwise — the lookup shape every scrape consumer needs. *)
