module Floor = Stc_floor.Floor
module Protocol = Stc_net.Protocol
module Registry = Stc_net.Registry
module Server = Stc_net.Server
module Client = Stc_net.Client

let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f ()

(* what the server must reproduce bit-identically: the offline engine
   with the server's default escalation (full test on guard rows) *)
let offline_reference flow rows =
  Floor.with_engine flow (fun engine ->
      Floor.process ~retest:(Floor.full_test flow) engine rows)

let same_outcomes ~what reference got =
  if Array.length got <> Array.length reference then
    Error
      (Printf.sprintf "%s: %d replies for %d rows" what (Array.length got)
         (Array.length reference))
  else begin
    let mismatch = ref None in
    Array.iteri
      (fun i (o : Floor.outcome) ->
        if !mismatch = None && o <> reference.(i) then
          mismatch :=
            Some
              (Printf.sprintf "%s: row %d got %S, reference %S" what i
                 (Protocol.format_outcome o)
                 (Protocol.format_outcome reference.(i))))
      got;
    match !mismatch with None -> Ok () | Some e -> Error e
  end

let flow_route = "dut"

let default_loopback_config =
  { Server.default_config with Server.flush_deadline_s = 0.02 }

let with_loopback_server ?(config = default_loopback_config) flow f =
  let registry = Registry.create () in
  match Registry.add registry ~name:flow_route flow with
  | Error e -> Error ("registry add: " ^ e)
  | Ok _ ->
    Fun.protect
      ~finally:(fun () -> Registry.shutdown registry)
      (fun () ->
        Server.with_server ~config registry (fun server -> f ~port:(Server.port server)))

(* the process-global metrics registry: checks assert deltas, never
   absolute values, because earlier checks in the same process also
   bump these counters *)
let counter_value name =
  Stc_obs.Registry.Counter.get (Stc_obs.Registry.counter name)

let await ~what ~timeout_s pred =
  let deadline = Stc_obs.Clock.now () +. timeout_s in
  let rec go () =
    if pred () then Ok ()
    else if Stc_obs.Clock.now () >= deadline then
      Error (Printf.sprintf "%s: not observed within %gs" what timeout_s)
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let connect_raw port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let send_all fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* one byte per syscall: the framing layer must reassemble the frame *)
let dribble fd s =
  String.iter (fun c -> send_all fd (String.make 1 c)) s

let expect_prefix ~what prefix line =
  if String.length line >= String.length prefix
     && String.sub line 0 (String.length prefix) = prefix
  then Ok ()
  else Error (Printf.sprintf "%s: expected %S..., got %S" what prefix line)

let fresh_client_matches ~what ~port flow rows reference =
  let c = Client.connect ~port () in
  Fun.protect
    ~finally:(fun () -> Client.quit c)
    (fun () ->
      match Client.bin_batch c ~flow rows with
      | Error e -> Error (Printf.sprintf "%s: fresh client: %s" what e)
      | Ok got -> same_outcomes ~what reference got)

let check_torn_frames (flow, rows) =
  let reference = offline_reference flow rows in
  with_loopback_server flow @@ fun ~port ->
  let fd = connect_raw port in
  let ic = Unix.in_channel_of_descr fd in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  dribble fd "PING\n";
  let* () = expect_prefix ~what:"dribbled PING" "OK pong" (input_line ic) in
  send_all fd "XYZZY definitely not a request\n";
  let* () =
    expect_prefix ~what:"garbage verb" "ERR bad-request" (input_line ic)
  in
  (* the abused connection must still work... *)
  dribble fd "PING\n";
  let* () = expect_prefix ~what:"PING after garbage" "OK pong" (input_line ic) in
  (* ...and a frame torn by a disconnect must only kill its own
     connection *)
  let torn = connect_raw port in
  send_all torn ("BIN " ^ flow_route ^ " 1.5,2.5");
  Unix.close torn;
  fresh_client_matches ~what:"after torn frame" ~port flow_route rows reference

let check_mid_batch_disconnect (flow, rows) =
  let n = Array.length rows in
  if n < 2 then Error "mid-batch disconnect: needs at least 2 rows"
  else begin
    let reference = offline_reference flow rows in
    with_loopback_server flow @@ fun ~port ->
    let fd = connect_raw port in
    send_all fd (Printf.sprintf "BATCH %s %d\n" flow_route n);
    for i = 0 to (n / 2) - 1 do
      send_all fd (Protocol.format_row rows.(i) ^ "\n")
    done;
    Unix.close fd;
    fresh_client_matches ~what:"after mid-batch disconnect" ~port flow_route
      rows reference
  end

(* ------------------------------ chaos ----------------------------- *)

(* [send_all] is fine for the small frames above; the chaos attackers
   push hundreds of kilobytes and must survive partial writes *)
let send_string fd s =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    match Unix.write_substring fd s !pos (n - !pos) with
    | written -> pos := !pos + written
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* drain one connection to EOF, returning the lines seen (bounded) *)
let read_until_eof ?(max_lines = 64) ic =
  let lines = ref [] in
  (try
     for _ = 1 to max_lines do
       lines := input_line ic :: !lines
     done
   with End_of_file | Sys_error _ -> ());
  List.rev !lines

let check_slow_loris (flow, rows) =
  let reference = offline_reference flow rows in
  let config =
    { default_loopback_config with Server.idle_timeout_s = 0.25 }
  in
  with_loopback_server ~config flow @@ fun ~port ->
  let reaped0 = counter_value "stc_net_idle_reaped_total" in
  (* a classic slow loris: open, trickle a partial frame, go silent *)
  let fd = connect_raw port in
  let ic = Unix.in_channel_of_descr fd in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  send_all fd "PIN";  (* never finished *)
  let* () =
    await ~what:"idle reap counter" ~timeout_s:5.0 (fun () ->
        counter_value "stc_net_idle_reaped_total" > reaped0)
  in
  (* the server must have told us why and closed the stream *)
  let lines = read_until_eof ic in
  let* () =
    match lines with
    | line :: _ -> expect_prefix ~what:"slow-loris reply" "ERR idle-timeout" line
    | [] -> Error "slow-loris: connection closed without an ERR idle-timeout"
  in
  (* ...while a live client on the same server is untouched *)
  fresh_client_matches ~what:"after slow-loris reap" ~port flow_route rows
    reference

let check_reply_ignorer (flow, rows) =
  let n = Array.length rows in
  if n = 0 then Ok ()
  else begin
    let reference = offline_reference flow rows in
    let count = 16384 in
    let config =
      {
        default_loopback_config with
        Server.write_timeout_s = 0.25;
        max_pending = count;
        (* shrink the server's send buffer so the unread replies fill
           it in kilobytes, not megabytes *)
        sndbuf_bytes = Some 4096;
      }
    in
    with_loopback_server ~config flow @@ fun ~port ->
    let timeouts0 = counter_value "stc_net_write_timeouts_total" in
    let fd = connect_raw port in
    (* a tiny receive window: the attacker's kernel stops ACKing new
       reply bytes almost immediately *)
    (try Unix.setsockopt_int fd Unix.SO_RCVBUF 4096
     with Unix.Unix_error _ -> ());
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let buf = Buffer.create (count * 32) in
    Buffer.add_string buf (Printf.sprintf "BATCH %s %d\n" flow_route count);
    for i = 0 to count - 1 do
      Buffer.add_string buf (Protocol.format_row rows.(i mod n) ^ "\n")
    done;
    send_string fd (Buffer.contents buf);
    (* ...and never read a single reply byte *)
    let* () =
      await ~what:"write timeout counter" ~timeout_s:10.0 (fun () ->
          counter_value "stc_net_write_timeouts_total" > timeouts0)
    in
    fresh_client_matches ~what:"after reply-ignoring client" ~port flow_route
      rows reference
  end

let check_connection_flood (flow, rows) =
  let reference = offline_reference flow rows in
  let max_conns = 8 in
  let flood = 4 * max_conns in
  let config =
    { default_loopback_config with Server.max_connections = max_conns }
  in
  with_loopback_server ~config flow @@ fun ~port ->
  let shed0 = counter_value "stc_net_shed_total" in
  let fds = Array.init flood (fun _ -> connect_raw port) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        fds)
  @@ fun () ->
  (* every connection asks for proof of life; the admitted ones get
     [OK pong], the shed ones one [ERR busy] line and a clean close *)
  Array.iter (fun fd -> send_all fd "PING\n") fds;
  let admitted = ref 0 and shed = ref 0 and odd = ref [] in
  Array.iter
    (fun fd ->
      let ic = Unix.in_channel_of_descr fd in
      match input_line ic with
      | line when String.length line >= 2 && String.sub line 0 2 = "OK" ->
        incr admitted
      | line when String.length line >= 8 && String.sub line 0 8 = "ERR busy"
        ->
        incr shed
      | line -> odd := line :: !odd
      | exception (End_of_file | Sys_error _) ->
        odd := "<closed without a reply line>" :: !odd)
    fds;
  let* () =
    match !odd with
    | [] -> Ok ()
    | line :: _ ->
      Error (Printf.sprintf "flood: unexpected first reply %S" line)
  in
  let* () =
    if !admitted = max_conns && !shed = flood - max_conns then Ok ()
    else
      Error
        (Printf.sprintf
           "flood of %d against max-conns %d: %d admitted, %d shed" flood
           max_conns !admitted !shed)
  in
  let* () =
    if counter_value "stc_net_shed_total" - shed0 >= flood - max_conns then
      Ok ()
    else Error "flood: stc_net_shed_total did not count the shed connections"
  in
  (* free the slots, then the server must serve untouched *)
  Array.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    fds;
  let* () =
    await ~what:"flood slots released" ~timeout_s:5.0 (fun () ->
        match
          let c = Client.connect ~port () in
          Fun.protect ~finally:(fun () -> Client.quit c) (fun () ->
              Client.ping c)
        with
        | Ok () -> true
        | Error _ -> false
        | exception _ -> false)
  in
  fresh_client_matches ~what:"after connection flood" ~port flow_route rows
    reference
