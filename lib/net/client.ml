module P = Protocol

type t = {
  ic : in_channel;
  oc : out_channel;
  mutable closed : bool;
}

let connect ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd;
    closed = false }

(* [ic] and [oc] wrap one descriptor, which must be closed exactly once:
   closing both channels closes it twice, and the second close can hit
   the same number just handed to another thread's file (a flow being
   reloaded in the same process, say). *)
let close t =
  if not t.closed then begin
    t.closed <- true;
    (try flush t.oc with Sys_error _ -> ());
    close_in_noerr t.ic
  end

(* Frames are buffered in [oc]; a request flushes once, after its last
   frame, so it reaches the server in one write. *)
let write_frame t line =
  output_string t.oc line;
  output_char t.oc '\n'

let send_line t line =
  write_frame t line;
  flush t.oc

let recv_line t = input_line t.ic

(* one request frame -> the `Ok detail / `Err pair of the reply *)
let roundtrip t req =
  send_line t (P.format_request req);
  match P.parse_reply (recv_line t) with
  | Ok (`Ok detail) -> Ok detail
  | Ok (`Err (code, msg)) -> Error (Printf.sprintf "%s: %s" code msg)
  | Error e -> Error e

let ping t = Result.map (fun _ -> ()) (roundtrip t P.Ping)

(* Drains [n] reply lines even when one of them is an ERR, so a bad row
   never desyncs the stream; the first error wins. *)
let read_outcomes t n =
  let outcomes = Array.make n { Stc_floor.Floor.bin = Stc_floor.Floor.Scrap;
                                verdict = Stc.Guard_band.Bad } in
  let first_error = ref None in
  for i = 0 to n - 1 do
    let line = recv_line t in
    match P.parse_outcome line with
    | Ok o -> outcomes.(i) <- o
    | Error _ ->
      if !first_error = None then
        first_error :=
          Some
            (match P.parse_reply line with
             | Ok (`Err (code, msg)) ->
               Printf.sprintf "row %d: %s: %s" i code msg
             | _ -> Printf.sprintf "row %d: unexpected reply %S" i line)
  done;
  match !first_error with None -> Ok outcomes | Some e -> Error e

let bin_batch t ~flow rows =
  let n = Array.length rows in
  write_frame t (P.format_request (P.Batch (flow, n)));
  Array.iter (fun row -> write_frame t (P.format_row row)) rows;
  flush t.oc;
  match P.parse_reply (recv_line t) with
  | Ok (`Ok _) -> read_outcomes t n
  | Ok (`Err (code, msg)) -> Error (Printf.sprintf "%s: %s" code msg)
  | Error e -> Error e

let stream t ~flow rows =
  let n = Array.length rows in
  Array.iter
    (fun row -> write_frame t (P.format_request (P.Bin (flow, row))))
    rows;
  send_line t (P.format_request P.Flush);
  match read_outcomes t n with
  | Error _ as e ->
    (* the FLUSH ack is still on the wire *)
    (try ignore (recv_line t) with End_of_file -> ());
    e
  | Ok outcomes -> (
    match P.parse_reply (recv_line t) with
    | Ok (`Ok _) -> Ok outcomes
    | Ok (`Err (code, msg)) -> Error (Printf.sprintf "%s: %s" code msg)
    | Error e -> Error e)

let metrics t () =
  match roundtrip t P.Metrics with
  | Error _ as e -> e
  | Ok detail -> (
    match String.split_on_char ' ' detail with
    | [ "metrics"; bytes ] -> (
      match int_of_string_opt bytes with
      | Some n when n >= 0 ->
        let buf = Bytes.create n in
        really_input t.ic buf 0 n;
        Ok (Bytes.to_string buf)
      | _ -> Error (Printf.sprintf "malformed metrics byte count %S" bytes))
    | _ -> Error (Printf.sprintf "malformed METRICS reply %S" detail))

let flows t =
  match roundtrip t P.Flows with
  | Error _ as e -> e
  | Ok detail -> (
    match String.split_on_char ' ' detail with
    | [ "flows"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> Ok (List.init n (fun _ -> recv_line t))
      | _ -> Error (Printf.sprintf "malformed FLOWS count %S" detail))
    | _ -> Error (Printf.sprintf "malformed FLOWS reply %S" detail))

let info t ~flow = roundtrip t (P.Info flow)
let stats t ~flow = roundtrip t (P.Stats flow)
let health t ?flow () = roundtrip t (P.Health flow)

let reload t ~flow ?path () =
  match roundtrip t (P.Reload { flow; path }) with
  | Error _ as e -> e
  | Ok detail ->
    if String.length detail >= 8 && String.sub detail 0 8 = "reloaded" then
      Ok (`Reloaded, detail)
    else if String.length detail >= 9 && String.sub detail 0 9 = "unchanged"
    then Ok (`Unchanged, detail)
    else Error (Printf.sprintf "malformed RELOAD reply %S" detail)

let quit t =
  (try
     send_line t (P.format_request P.Quit);
     ignore (recv_line t)
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  close t

let shutdown t = Result.map (fun _ -> ()) (roundtrip t P.Shutdown)
