module Spec = Stc.Spec

let fp = Printf.sprintf "%.17g"

let write ~path ~specs ~rows =
  let k = Array.length specs in
  Array.iteri
    (fun i row ->
      if Array.length row <> k then
        invalid_arg "Device_csv.write: row width does not match spec count";
      Array.iteri
        (fun j v ->
          if not (Float.is_finite v) then
            invalid_arg
              (Printf.sprintf
                 "Device_csv.write: non-finite value at row %d, column %d" i j))
        row)
    rows;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (String.concat ","
           (Array.to_list (Array.map (fun s -> s.Spec.name) specs)));
      output_char oc '\n';
      Array.iter
        (fun row ->
          output_string oc
            (String.concat "," (Array.to_list (Array.map fp row)));
          output_char oc '\n')
        rows;
      (* inside the body, so a write error at the final flush raises *)
      close_out oc)

(* ------------------------------ streaming ------------------------- *)

(* The reader pulls one physical line at a time off the channel, so a
   consumer that bins batch-sized chunks (the network server, `stc
   serve --input -`) never materialises the whole floor run in memory.
   [read] below is a fold over the same reader, so both paths share one
   parser and one set of error messages. *)

type reader = {
  ic : in_channel;
  owns_channel : bool;  (* close on [close_reader]? not for stdin *)
  names : string array;
  mutable lineno : int;  (* physical 1-based line of the last line read *)
  mutable at_eof : bool;
  mutable closed : bool;
}

(* One physical line, CRLF-tolerant, blank lines skipped (the
   documented degradation for trailing newlines from external
   loggers); [None] at end of input. *)
let next_data_line r =
  let rec go () =
    match input_line r.ic with
    | exception End_of_file ->
      r.at_eof <- true;
      None
    | line ->
      r.lineno <- r.lineno + 1;
      let line =
        if String.length line > 0 && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      if line = "" then go () else Some line
  in
  if r.at_eof then None else go ()

let parse_row_cells ~lineno ~k cells =
  if List.length cells <> k then
    Error
      (Printf.sprintf "line %d: expected %d columns, got %d" lineno k
         (List.length cells))
  else begin
    let row = Array.make k 0.0 in
    let rec fill col = function
      | [] -> Ok row
      | cell :: more -> (
        match float_of_string_opt cell with
        | None ->
          Error
            (Printf.sprintf "line %d, column %d: non-numeric cell %S" lineno
               (col + 1) cell)
        | Some v when not (Float.is_finite v) ->
          Error
            (Printf.sprintf
               "line %d, column %d: non-finite cell %S (NaN/inf measurements \
                are rejected)"
               (lineno) (col + 1) cell)
        | Some v ->
          row.(col) <- v;
          fill (col + 1) more)
    in
    fill 0 cells
  end

let reader_of_channel ?(owns_channel = false) ic =
  let r =
    { ic; owns_channel; names = [||]; lineno = 0; at_eof = false; closed = false }
  in
  match next_data_line r with
  | None -> Error "empty CSV"
  | Some header ->
    let names = Array.of_list (String.split_on_char ',' header) in
    Ok { r with names }

let open_reader ~path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> (
    match reader_of_channel ~owns_channel:true ic with
    | Ok _ as ok -> ok
    | Error _ as e ->
      close_in_noerr ic;
      e)

let header r = Array.copy r.names

let close_reader r =
  if not r.closed then begin
    r.closed <- true;
    if r.owns_channel then close_in_noerr r.ic
  end

let next r =
  if r.closed then Error "reader is closed"
  else
    match next_data_line r with
    | None -> Ok None
    | Some line ->
      let cells = String.split_on_char ',' line in
      (match parse_row_cells ~lineno:r.lineno ~k:(Array.length r.names) cells with
       | Ok row -> Ok (Some row)
       | Error _ as e -> e)

let next_batch r ~max =
  if max < 1 then invalid_arg "Device_csv.next_batch: max must be >= 1";
  let rec go acc n =
    if n >= max then Ok (Array.of_list (List.rev acc))
    else
      match next r with
      | Error _ as e -> e
      | Ok None -> Ok (Array.of_list (List.rev acc))
      | Ok (Some row) -> go (row :: acc) (n + 1)
  in
  go [] 0

let read ~path =
  match open_reader ~path with
  | Error _ as e -> e
  | Ok r ->
    Fun.protect
      ~finally:(fun () -> close_reader r)
      (fun () ->
        let rec go acc =
          match next r with
          | Error _ as e -> e
          | Ok None -> Ok (header r, Array.of_list (List.rev acc))
          | Ok (Some row) -> go (row :: acc)
        in
        go [])
