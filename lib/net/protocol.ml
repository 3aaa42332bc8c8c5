module Floor = Stc_floor.Floor
module Guard_band = Stc.Guard_band

type request =
  | Ping
  | Flows
  | Info of string
  | Bin of string * float array
  | Batch of string * int
  | Flush
  | Metrics
  | Stats of string
  | Reload of { flow : string; path : string option }
  | Health of string option
  | Quit
  | Shutdown

let max_line_bytes = 1 lsl 20

let flow_name_ok name =
  let n = String.length name in
  n >= 1 && n <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | ':' | '-' -> true
         | _ -> false)
       name

(* Printf's [%.17g] is this primitive applied to the format "%.17g"
   (CamlinternalFormat.convert_float), so the bytes are the same
   without the format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let add_row buf row =
  for i = 0 to Array.length row - 1 do
    if i > 0 then Buffer.add_char buf ',';
    Buffer.add_string buf (format_float "%.17g" (Array.unsafe_get row i))
  done

let format_row row =
  let buf = Buffer.create (24 * Array.length row) in
  add_row buf row;
  Buffer.contents buf

let parse_row line =
  if line = "" then Ok [||]
  else begin
    let len = String.length line in
    let cells = ref 1 in
    for i = 0 to len - 1 do
      if String.unsafe_get line i = ',' then incr cells
    done;
    let row = Array.make !cells 0.0 in
    (* cell [col] starts at [start] and runs to the next comma *)
    let rec fill col start =
      let stop = ref start in
      while !stop < len && String.unsafe_get line !stop <> ',' do
        incr stop
      done;
      let stop = !stop in
      let cell = String.sub line start (stop - start) in
      match float_of_string cell with
      | exception Failure _ ->
        Error (Printf.sprintf "column %d: non-numeric cell %S" (col + 1) cell)
      | v when not (Float.is_finite v) ->
        Error
          (Printf.sprintf
             "column %d: non-finite cell %S (NaN/inf measurements are \
              rejected)"
             (col + 1) cell)
      | v ->
        row.(col) <- v;
        if stop = len then Ok row else fill (col + 1) (stop + 1)
    in
    fill 0 0
  end

(* one line, flattened: reply lines must never embed a frame break *)
let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let check_name name k =
  if flow_name_ok name then k ()
  else Error (Printf.sprintf "invalid flow name %S" name)

let parse_request line =
  let line = strip_cr line in
  match String.split_on_char ' ' line with
  | [ "PING" ] -> Ok Ping
  | [ "FLOWS" ] -> Ok Flows
  | [ "INFO"; name ] -> check_name name (fun () -> Ok (Info name))
  | [ "BIN"; name; cells ] ->
    check_name name (fun () ->
        match parse_row cells with
        | Ok row -> Ok (Bin (name, row))
        | Error e -> Error ("bad row: " ^ e))
  | [ "BATCH"; name; n ] ->
    check_name name (fun () ->
        match int_of_string_opt n with
        | Some n when n >= 0 -> Ok (Batch (name, n))
        | Some _ -> Error "BATCH count must be >= 0"
        | None -> Error (Printf.sprintf "malformed BATCH count %S" n))
  | [ "FLUSH" ] -> Ok Flush
  | [ "METRICS" ] | [ "METRICS"; "text" ] -> Ok Metrics
  | [ "METRICS"; fmt ] -> Error (Printf.sprintf "unknown METRICS format %S" fmt)
  | [ "STATS"; name ] -> check_name name (fun () -> Ok (Stats name))
  | [ "RELOAD"; name ] ->
    check_name name (fun () -> Ok (Reload { flow = name; path = None }))
  | "RELOAD" :: name :: path :: rest ->
    (* the path is the whole remainder: file names may contain spaces *)
    check_name name (fun () ->
        Ok (Reload { flow = name; path = Some (String.concat " " (path :: rest)) }))
  | [ "HEALTH" ] -> Ok (Health None)
  | [ "HEALTH"; name ] -> check_name name (fun () -> Ok (Health (Some name)))
  | [ "QUIT" ] -> Ok Quit
  | [ "SHUTDOWN" ] -> Ok Shutdown
  | [] | [ "" ] -> Error "empty request"
  | verb :: _ -> Error (Printf.sprintf "unknown request %S" verb)

let format_request = function
  | Ping -> "PING"
  | Flows -> "FLOWS"
  | Info name -> "INFO " ^ name
  | Bin (name, row) ->
    let buf = Buffer.create (String.length name + 5 + (24 * Array.length row)) in
    Buffer.add_string buf "BIN ";
    Buffer.add_string buf name;
    Buffer.add_char buf ' ';
    add_row buf row;
    Buffer.contents buf
  | Batch (name, n) -> Printf.sprintf "BATCH %s %d" name n
  | Flush -> "FLUSH"
  | Metrics -> "METRICS"
  | Stats name -> "STATS " ^ name
  | Reload { flow; path = None } -> "RELOAD " ^ flow
  | Reload { flow; path = Some p } -> Printf.sprintf "RELOAD %s %s" flow p
  | Health None -> "HEALTH"
  | Health (Some name) -> "HEALTH " ^ name
  | Quit -> "QUIT"
  | Shutdown -> "SHUTDOWN"

let bin_to_string = function
  | Floor.Ship -> "SHIP"
  | Floor.Scrap -> "SCRAP"
  | Floor.Retest -> "RETEST"

let bin_of_string = function
  | "SHIP" -> Some Floor.Ship
  | "SCRAP" -> Some Floor.Scrap
  | "RETEST" -> Some Floor.Retest
  | _ -> None

let verdict_to_string = function
  | Guard_band.Good -> "GOOD"
  | Guard_band.Bad -> "BAD"
  | Guard_band.Guard -> "GUARD"

let verdict_of_string = function
  | "GOOD" -> Some Guard_band.Good
  | "BAD" -> Some Guard_band.Bad
  | "GUARD" -> Some Guard_band.Guard
  | _ -> None

let format_outcome (o : Floor.outcome) =
  Printf.sprintf "BIN %s %s" (bin_to_string o.Floor.bin)
    (verdict_to_string o.Floor.verdict)

let parse_outcome line =
  match String.split_on_char ' ' (strip_cr line) with
  | [ "BIN"; bin; verdict ] -> (
    match (bin_of_string bin, verdict_of_string verdict) with
    | Some bin, Some verdict -> Ok { Floor.bin; verdict }
    | _ -> Error (Printf.sprintf "malformed BIN reply %S" line))
  | _ -> Error (Printf.sprintf "expected a BIN reply, got %S" line)

let ok_line detail = "OK " ^ one_line detail

let err_line ~code msg = Printf.sprintf "ERR %s %s" code (one_line msg)

let parse_reply line =
  let line = strip_cr line in
  if String.length line >= 3 && String.sub line 0 3 = "OK " then
    Ok (`Ok (String.sub line 3 (String.length line - 3)))
  else if line = "OK" then Ok (`Ok "")
  else if String.length line >= 4 && String.sub line 0 4 = "ERR " then begin
    let rest = String.sub line 4 (String.length line - 4) in
    match String.index_opt rest ' ' with
    | Some i ->
      Ok (`Err (String.sub rest 0 i,
                String.sub rest (i + 1) (String.length rest - i - 1)))
    | None -> Ok (`Err (rest, ""))
  end
  else Error (Printf.sprintf "malformed reply line %S" line)
