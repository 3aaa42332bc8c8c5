module Obs = Stc_obs.Registry
module Clock = Stc_obs.Clock
module Floor = Stc_floor.Floor
module P = Protocol

(* Process-wide serving counters; scraped live via METRICS. *)
let m_connections = Obs.counter "stc_net_connections_total"
let m_rejected = Obs.counter "stc_net_rejected_connections_total"
let m_shed = Obs.counter "stc_net_shed_total"
let m_drain_rejected = Obs.counter "stc_net_drain_rejected_total"
let m_accept_errors = Obs.counter "stc_net_accept_errors_total"
let g_active = Obs.gauge "stc_net_active_connections"
let g_draining = Obs.gauge "stc_net_draining"
let m_requests = Obs.counter "stc_net_requests_total"
let m_rows = Obs.counter "stc_net_rows_total"
let m_batches = Obs.counter "stc_net_batches_total"
let m_flushes = Obs.counter "stc_net_flushes_total"
let m_deadline_flushes = Obs.counter "stc_net_deadline_flushes_total"
let m_backpressure = Obs.counter "stc_net_backpressure_stalls_total"
let m_idle_reaped = Obs.counter "stc_net_idle_reaped_total"
let m_write_timeouts = Obs.counter "stc_net_write_timeouts_total"
let m_errors = Obs.counter "stc_net_errors_total"
let m_disconnects = Obs.counter "stc_net_disconnects_total"
let m_torn_frames = Obs.counter "stc_net_torn_frames_total"
let h_flush = Obs.histogram "stc_net_flush_s"

type config = {
  host : string;
  port : int;
  max_connections : int;
  flush_rows : int;
  flush_deadline_s : float;
  max_pending : int;
  idle_timeout_s : float;
  write_timeout_s : float;
  drain_deadline_s : float;
  sndbuf_bytes : int option;
  escalate : bool;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    max_connections = 64;
    flush_rows = 256;
    flush_deadline_s = 0.05;
    max_pending = 4096;
    idle_timeout_s = 300.0;
    write_timeout_s = 30.0;
    drain_deadline_s = 5.0;
    sndbuf_bytes = None;
    escalate = true;
  }

type t = {
  registry : Registry.t;
  config : config;
  addr : Unix.inet_addr;  (* config.host, parsed *)
  lock : Mutex.t;
  mutable listen_fd : Unix.file_descr option;
  mutable bound_port : int;
  mutable accept_thread : Thread.t option;
  threads : (int, Thread.t) Hashtbl.t;  (* live handlers, by conn id *)
  mutable dead_threads : Thread.t list; (* finished, awaiting a join *)
  conns : (int, Unix.file_descr) Hashtbl.t;
  mutable next_conn_id : int;
  stop_flag : bool Atomic.t;
  shutdown_req : bool Atomic.t;
  drain_flag : bool Atomic.t;
  drain_until : float Atomic.t;  (* monotonic; valid once drain_flag is set *)
  mutable started : bool;
  mutable stopped : bool;
}

let create ?(config = default_config) registry =
  let addr =
    match Unix.inet_addr_of_string config.host with
    | addr when Unix.domain_of_sockaddr (Unix.ADDR_INET (addr, 0)) = Unix.PF_INET ->
      addr
    | _ | (exception Failure _) ->
      invalid_arg
        (Printf.sprintf "Server.create: host must be an IPv4 address (got %S)"
           config.host)
  in
  if config.port < 0 || config.port > 65535 then
    invalid_arg "Server.create: port must be in [0, 65535]";
  if config.flush_rows < 1 then
    invalid_arg "Server.create: flush_rows must be >= 1";
  (* every timeout ends up in a [Unix.select], which raises EINVAL on a
     NaN: each time check here is written so that NaN fails it *)
  if not (config.flush_deadline_s > 0.0) then
    invalid_arg "Server.create: flush_deadline_s must be positive";
  if config.max_pending < 1 then
    invalid_arg "Server.create: max_pending must be >= 1";
  if config.max_connections < 1 then
    invalid_arg "Server.create: max_connections must be >= 1";
  if not (config.drain_deadline_s >= 0.0) then
    invalid_arg "Server.create: drain_deadline_s must be >= 0";
  if Float.is_nan config.idle_timeout_s then
    invalid_arg "Server.create: idle_timeout_s must not be NaN";
  if Float.is_nan config.write_timeout_s then
    invalid_arg "Server.create: write_timeout_s must not be NaN";
  (match config.sndbuf_bytes with
   | Some n when n < 1 ->
     invalid_arg "Server.create: sndbuf_bytes must be >= 1"
   | _ -> ());
  {
    registry;
    config;
    addr;
    lock = Mutex.create ();
    listen_fd = None;
    bound_port = -1;
    accept_thread = None;
    threads = Hashtbl.create 16;
    dead_threads = [];
    conns = Hashtbl.create 16;
    next_conn_id = 0;
    stop_flag = Atomic.make false;
    shutdown_req = Atomic.make false;
    drain_flag = Atomic.make false;
    drain_until = Atomic.make 0.0;
    started = false;
    stopped = false;
  }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let draining t = Atomic.get t.drain_flag

let drain ?deadline_s t =
  let d =
    match deadline_s with Some d -> d | None -> t.config.drain_deadline_s
  in
  if Float.is_nan d then invalid_arg "Server.drain: deadline_s must not be NaN";
  if not (Atomic.get t.drain_flag) then begin
    (* deadline first: a reader that observes the flag must find a
       valid deadline behind it *)
    Atomic.set t.drain_until (Clock.now () +. Stdlib.max 0.0 d);
    Atomic.set t.drain_flag true;
    Obs.Gauge.set g_draining 1.0
  end

(* ------------------------- connection I/O ------------------------- *)

exception Conn_closed
exception Reaped          (* idle deadline: silent client cut loose *)
exception Drain_expired   (* drain deadline: stop serving this client *)

(* [true] when [fd] turns readable within [timeout_s] (negative =
   forever); EINTR retries with the remaining time. [Unix.select] takes
   its whole seconds as a C int and refuses a timeout past 2^31 s, so a
   longer one (an infinite write timeout) waits without bound too. *)
let wait_io ~write fd timeout_s =
  let deadline =
    if timeout_s < 0.0 || timeout_s > 1e9 then None
    else Some (Clock.now () +. timeout_s)
  in
  let rec go () =
    let t =
      match deadline with
      | None -> -1.0
      | Some d -> Stdlib.max 0.0 (d -. Clock.now ())
    in
    let rd, wr = if write then ([], [ fd ]) else ([ fd ], []) in
    match Unix.select rd wr [] t with
    | [], [], _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let wait_readable fd timeout_s = wait_io ~write:false fd timeout_s
let wait_writable fd timeout_s = wait_io ~write:true fd timeout_s

(* Connection sockets are non-blocking so a reply write can carry a
   deadline: a client that stops reading (dead peer behind a live TCP
   window) stalls in EAGAIN, and once [timeout_s] elapses the
   connection is torn down instead of wedging its handler thread
   forever. [timeout_s <= 0] waits without bound. *)
let write_all ~timeout_s fd s =
  let deadline =
    if timeout_s <= 0.0 then None else Some (Clock.now () +. timeout_s)
  in
  let await () =
    match deadline with
    | None -> if not (wait_writable fd (-1.0)) then raise Conn_closed
    | Some d ->
      let remaining = d -. Clock.now () in
      if remaining <= 0.0 || not (wait_writable fd remaining) then begin
        Obs.Counter.incr m_write_timeouts;
        raise Conn_closed
      end
  in
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    match Unix.write_substring fd s !pos (n - !pos) with
    | written -> pos := !pos + written
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      await ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
      ->
      raise Conn_closed
  done

type pending_item =
  | Row of Registry.entry * float array
  | Deferred_reply of string  (* a full reply line, e.g. ERR unknown-flow *)

type conn = {
  fd : Unix.file_descr;
  lines : string Queue.t;       (* complete frames not yet handled *)
  mutable buf : Bytes.t;        (* the connection's read buffer *)
  mutable buf_len : int;        (* bytes [0, buf_len): a partial frame *)
  mutable eof : bool;
  pending : pending_item Queue.t;
  mutable first_pending_t : float;
  mutable last_activity : float;  (* monotonic; bumped on received bytes *)
  write_timeout_s : float;
}

let conn_write conn s = write_all ~timeout_s:conn.write_timeout_s conn.fd s

(* Reads into the free end of the connection's buffer, queues every
   complete frame, and moves the partial frame left over to the front.
   The buffer doubles only when a partial frame fills it, which the
   [max_line_bytes] guard bounds. *)
let recv_into conn =
  if conn.buf_len = Bytes.length conn.buf then begin
    let bigger = Bytes.create (2 * Bytes.length conn.buf) in
    Bytes.blit conn.buf 0 bigger 0 conn.buf_len;
    conn.buf <- bigger
  end;
  let buf = conn.buf in
  match Unix.read conn.fd buf conn.buf_len (Bytes.length buf - conn.buf_len) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
    (* an RST discards the receive queue, so this is an abnormal
       teardown even when it is the first thing the handler sees *)
    raise Conn_closed
  | exception Unix.Unix_error (Unix.EBADF, _, _) -> conn.eof <- true
  | 0 -> conn.eof <- true
  | n ->
    conn.last_activity <- Clock.now ();
    let stop = conn.buf_len + n in
    let start = ref 0 in
    (* only the bytes just read can hold a newline *)
    for i = conn.buf_len to stop - 1 do
      if Bytes.unsafe_get buf i = '\n' then begin
        Queue.push (Bytes.sub_string buf !start (i - !start)) conn.lines;
        start := i + 1
      end
    done;
    let rest = stop - !start in
    if !start > 0 then Bytes.blit buf !start buf 0 rest;
    conn.buf_len <- rest;
    if rest > P.max_line_bytes then begin
      Obs.Counter.incr m_errors;
      conn_write conn
        (P.err_line ~code:"frame-too-long"
           (Printf.sprintf "request line exceeds %d bytes" P.max_line_bytes)
        ^ "\n");
      raise Conn_closed
    end

(* ------------------------------ flushing -------------------------- *)

let registry_process server entry rows =
  Registry.process ~escalate:server.config.escalate entry rows

(* Answer every pending row, in request order, sharding maximal runs of
   same-flow rows into one engine batch each. *)
let flush_pending server conn reason =
  let n = Queue.length conn.pending in
  if n > 0 then begin
    let t0 = Clock.now () in
    let items = Array.make n (Deferred_reply "") in
    for i = 0 to n - 1 do
      items.(i) <- Queue.pop conn.pending
    done;
    Obs.Counter.incr m_flushes;
    if reason = `Deadline then Obs.Counter.incr m_deadline_flushes;
    let replies = Array.make n "" in
    let i = ref 0 in
    while !i < n do
      match items.(!i) with
      | Deferred_reply line ->
        replies.(!i) <- line;
        incr i
      | Row (entry, _) ->
        let start = !i in
        let stop = ref !i in
        (* widen to the maximal same-entry run *)
        while
          !stop < n
          && match items.(!stop) with
             | Row (e, _) -> e == entry
             | Deferred_reply _ -> false
        do
          incr stop
        done;
        let rows =
          Array.init (!stop - start) (fun j ->
              match items.(start + j) with
              | Row (_, row) -> row
              | Deferred_reply _ -> assert false)
        in
        (match registry_process server entry rows with
         | Ok outcomes ->
           Array.iteri
             (fun j o -> replies.(start + j) <- P.format_outcome o)
             outcomes
         | Error e ->
           Obs.Counter.incr m_errors;
           let line = P.err_line ~code:"bad-row" e in
           for j = start to !stop - 1 do
             replies.(j) <- line
           done);
        i := !stop
    done;
    Obs.Counter.add m_rows n;
    let buf = Buffer.create (n * 16) in
    Array.iter
      (fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n')
      replies;
    conn_write conn (Buffer.contents buf);
    Obs.Histogram.observe h_flush (Clock.now () -. t0)
  end;
  n

(* The next complete frame, or [None] at end of stream. The wait is
   never unbounded: it is clipped to the nearest of the flush deadline
   (pending rows must be answered within [flush_deadline_s]), the idle
   deadline (a connection that sends nothing for [idle_timeout_s] is
   reaped — slow-loris openers cannot pin handler threads), the drain
   deadline, and a 0.1 s poll so a stop is noticed promptly. *)
let rec next_line server conn =
  if not (Queue.is_empty conn.lines) then Some (Queue.pop conn.lines)
  else if conn.eof then None
  else if Atomic.get server.stop_flag then None
  else begin
    let now = Clock.now () in
    let flush_d =
      if Queue.is_empty conn.pending then None
      else Some (conn.first_pending_t +. server.config.flush_deadline_s)
    in
    let idle_d =
      if server.config.idle_timeout_s <= 0.0 then None
      else Some (conn.last_activity +. server.config.idle_timeout_s)
    in
    let drain_d =
      if Atomic.get server.drain_flag then
        Some (Atomic.get server.drain_until)
      else None
    in
    let due = function Some d when now >= d -> true | _ -> false in
    if due flush_d then begin
      ignore (flush_pending server conn `Deadline);
      next_line server conn
    end
    else if due drain_d then begin
      (* answer what is already queued before giving up on the client *)
      ignore (flush_pending server conn `Request);
      raise Drain_expired
    end
    else if due idle_d then begin
      Obs.Counter.incr m_idle_reaped;
      (try
         conn_write conn
           (P.err_line ~code:"idle-timeout"
              (Printf.sprintf "no request in %gs" server.config.idle_timeout_s)
           ^ "\n")
       with Conn_closed -> ());
      raise Reaped
    end
    else begin
      let timeout =
        List.fold_left
          (fun acc d ->
            match d with
            | None -> acc
            | Some d -> Stdlib.min acc (Stdlib.max 0.0 (d -. now)))
          0.1
          [ flush_d; idle_d; drain_d ]
      in
      if wait_readable conn.fd timeout then recv_into conn;
      next_line server conn
    end
  end

(* ------------------------------ requests -------------------------- *)

exception Quit_conn

let reply conn line = conn_write conn (line ^ "\n")

let err_draining = P.err_line ~code:"draining" "server is draining"

let status_fields (st : Registry.status) =
  Printf.sprintf
    "version %d fingerprint %s specs %d kept %d dropped %d"
    st.Registry.version st.Registry.fingerprint st.Registry.specs
    st.Registry.kept
    (st.Registry.specs - st.Registry.kept)

let handle_batch server conn name count =
  match Registry.find server.registry name with
  | None ->
    Obs.Counter.incr m_errors;
    reply conn (P.err_line ~code:"unknown-flow" (Printf.sprintf "flow %S" name))
  | Some _ when count > server.config.max_pending ->
    (* refusing without draining the declared rows would desync the
       stream, and draining an unbounded count is an attack surface:
       drop the connection instead *)
    Obs.Counter.incr m_errors;
    reply conn
      (P.err_line ~code:"overflow"
         (Printf.sprintf "BATCH of %d exceeds the %d-row bound" count
            server.config.max_pending));
    raise Quit_conn
  | Some entry ->
    let rows = Array.make count [||] in
    let row_errors = Array.make count None in
    let received = ref 0 in
    (* if the drain deadline lands mid-batch the rows already received
       are accepted devices and still get verdicts; the rows the client
       never sent are answered [ERR draining] and the connection closes *)
    (try
       for i = 0 to count - 1 do
         (match next_line server conn with
          | None -> raise Conn_closed  (* mid-batch disconnect *)
          | Some line -> (
            match P.parse_row line with
            | Ok row -> rows.(i) <- row
            | Error e -> row_errors.(i) <- Some e));
         received := i + 1
       done
     with Drain_expired -> ());
    let got = !received in
    let valid_idx =
      Array.to_list
        (Array.of_seq
           (Seq.filter
              (fun i -> row_errors.(i) = None)
              (Seq.init got Fun.id)))
    in
    let valid_rows = Array.of_list (List.map (fun i -> rows.(i)) valid_idx) in
    let replies = Array.make count "" in
    for i = got to count - 1 do
      replies.(i) <- err_draining
    done;
    Array.iteri
      (fun i e ->
        match e with
        | Some msg -> if i < got then replies.(i) <- P.err_line ~code:"bad-row" msg
        | None -> ())
      row_errors;
    (match registry_process server entry valid_rows with
     | Ok outcomes ->
       List.iteri
         (fun j i -> replies.(i) <- P.format_outcome outcomes.(j))
         valid_idx
     | Error e ->
       Obs.Counter.incr m_errors;
       let line = P.err_line ~code:"bad-row" e in
       List.iter (fun i -> replies.(i) <- line) valid_idx);
    Obs.Counter.add m_rows got;
    Obs.Counter.incr m_batches;
    let buf = Buffer.create (count * 16 + 32) in
    Buffer.add_string buf (P.ok_line (Printf.sprintf "batch %d" count));
    Buffer.add_char buf '\n';
    Array.iter
      (fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n')
      replies;
    conn_write conn (Buffer.contents buf);
    if got < count then raise Quit_conn

let handle_request server conn req =
  let flush () = ignore (flush_pending server conn `Request) in
  let is_draining () = Atomic.get server.drain_flag in
  match req with
  | P.Bin (name, row) ->
    if Queue.length conn.pending >= server.config.max_pending then begin
      (* bounded queue: flush before accepting more — with the reply
         written only now, the client's own read loop is the brake *)
      Obs.Counter.incr m_backpressure;
      ignore (flush_pending server conn `Size)
    end;
    if Queue.is_empty conn.pending then
      conn.first_pending_t <- Clock.now ();
    (if is_draining () then begin
       (* new work is refused, but through the deferred-reply queue so
          replies still come back in request order *)
       Obs.Counter.incr m_drain_rejected;
       Queue.push (Deferred_reply err_draining) conn.pending
     end
     else
       match Registry.find server.registry name with
       | None ->
         Obs.Counter.incr m_errors;
         Queue.push
           (Deferred_reply
              (P.err_line ~code:"unknown-flow" (Printf.sprintf "flow %S" name)))
           conn.pending
       | Some entry -> Queue.push (Row (entry, row)) conn.pending);
    if Queue.length conn.pending >= server.config.flush_rows then
      ignore (flush_pending server conn `Size)
  | P.Flush ->
    let n = flush_pending server conn `Explicit in
    reply conn (P.ok_line (Printf.sprintf "flushed %d" n))
  | P.Ping ->
    flush ();
    reply conn (P.ok_line "pong")
  | P.Flows ->
    flush ();
    let statuses = Registry.list server.registry in
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (P.ok_line (Printf.sprintf "flows %d" (List.length statuses)));
    Buffer.add_char buf '\n';
    List.iter
      (fun (st : Registry.status) ->
        Buffer.add_string buf
          (Printf.sprintf "FLOW %s %d %s %d/%d\n" st.Registry.name
             st.Registry.version st.Registry.fingerprint st.Registry.kept
             st.Registry.specs))
      statuses;
    conn_write conn (Buffer.contents buf)
  | P.Info name ->
    flush ();
    (match Registry.find server.registry name with
     | None ->
       Obs.Counter.incr m_errors;
       reply conn
         (P.err_line ~code:"unknown-flow" (Printf.sprintf "flow %S" name))
     | Some entry ->
       let st = Registry.status entry in
       reply conn
         (P.ok_line (Printf.sprintf "flow %s %s" name (status_fields st))))
  | P.Health ->
    flush ();
    if is_draining () then reply conn err_draining
    else
      reply conn
        (P.ok_line
           (Printf.sprintf "health serving flows %d"
              (List.length (Registry.names server.registry))))
  | P.Stats name ->
    flush ();
    (match Registry.find server.registry name with
     | None ->
       Obs.Counter.incr m_errors;
       reply conn
         (P.err_line ~code:"unknown-flow" (Printf.sprintf "flow %S" name))
     | Some entry ->
       let st = Registry.status entry in
       let s = st.Registry.stats in
       reply conn
         (P.ok_line
            (Printf.sprintf
               "stats devices %d shipped %d scrapped %d retested %d batches \
                %d version %d"
               s.Floor.devices s.Floor.shipped s.Floor.scrapped s.Floor.retested
               s.Floor.batches st.Registry.version)))
  | P.Batch (name, count) ->
    flush ();
    if is_draining () then begin
      (* the declared rows will never be read; closing is the only way
         to keep the stream in sync *)
      Obs.Counter.incr m_drain_rejected;
      reply conn err_draining;
      raise Quit_conn
    end
    else handle_batch server conn name count
  | P.Metrics ->
    flush ();
    (* every stc-metrics-1 line, the last included, ends in '\n' *)
    let payload = Obs.to_text () in
    reply conn (P.ok_line (Printf.sprintf "metrics %d" (String.length payload)));
    conn_write conn payload
  | P.Reload { flow; path } ->
    flush ();
    (match Registry.reload ?path server.registry ~name:flow with
     | Ok (`Reloaded st) ->
       reply conn
         (P.ok_line
            (Printf.sprintf "reloaded %s version %d fingerprint %s" flow
               st.Registry.version st.Registry.fingerprint))
     | Ok (`Unchanged st) ->
       reply conn
         (P.ok_line
            (Printf.sprintf "unchanged %s version %d fingerprint %s" flow
               st.Registry.version st.Registry.fingerprint))
     | Error e ->
       Obs.Counter.incr m_errors;
       reply conn (P.err_line ~code:"reload" e))
  | P.Quit ->
    flush ();
    reply conn (P.ok_line "bye");
    raise Quit_conn
  | P.Shutdown ->
    flush ();
    (* latch before the ack: a client that saw [OK bye] must observe
       [shutdown_requested] as true *)
    Atomic.set server.shutdown_req true;
    reply conn (P.ok_line "bye");
    raise Quit_conn

(* ---------------------------- connections ------------------------- *)

let handle_conn server conn =
  let rec loop () =
    match next_line server conn with
    | None ->
      (* end of stream; a partial frame left behind is a torn frame *)
      if conn.buf_len > 0 then Obs.Counter.incr m_torn_frames
    | Some line ->
      Obs.Counter.incr m_requests;
      (match P.parse_request line with
       | Ok req -> handle_request server conn req
       | Error e ->
         Obs.Counter.incr m_errors;
         ignore (flush_pending server conn `Request);
         reply conn (P.err_line ~code:"bad-request" e));
      loop ()
  in
  loop ()

let conn_main server id fd =
  let conn =
    {
      fd;
      lines = Queue.create ();
      buf = Bytes.create 65536;
      buf_len = 0;
      eof = false;
      pending = Queue.create ();
      first_pending_t = 0.0;
      last_activity = Clock.now ();
      write_timeout_s = server.config.write_timeout_s;
    }
  in
  (try handle_conn server conn with
   | Quit_conn | Reaped -> ()
   | Drain_expired ->
     (try conn_write conn (err_draining ^ "\n") with Conn_closed -> ())
   | Conn_closed ->
     (* the peer vanished mid-conversation (EPIPE/ECONNRESET on write,
        eof mid-batch, or a blown write deadline): per-connection
        teardown, not an error *)
     Obs.Counter.incr m_disconnects
   | Unix.Unix_error _ -> Obs.Counter.incr m_errors
   | _ -> Obs.Counter.incr m_errors);
  with_lock server.lock (fun () ->
      if Hashtbl.mem server.conns id then begin
        Hashtbl.remove server.conns id;
        (try Unix.close fd with Unix.Unix_error _ -> ())
      end;
      (* hand the thread handle to the accept loop's reaper: a
         long-lived server must not accumulate one Thread.t per
         connection it ever served *)
      match Hashtbl.find_opt server.threads id with
      | Some th ->
        Hashtbl.remove server.threads id;
        server.dead_threads <- th :: server.dead_threads
      | None -> ());
  Obs.Gauge.add g_active (-1.0)

let reap_dead_threads server =
  let dead =
    with_lock server.lock (fun () ->
        let d = server.dead_threads in
        server.dead_threads <- [];
        d)
  in
  List.iter Thread.join dead

let accept_loop server lfd =
  let consecutive_errors = ref 0 in
  while not (Atomic.get server.stop_flag) do
    reap_dead_threads server;
    if wait_readable lfd 0.2 then begin
      match Unix.accept lfd with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) ->
        (* the peer hung up between SYN and accept: their failure *)
        Obs.Counter.incr m_accept_errors
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
        Atomic.set server.stop_flag true
      | exception Unix.Unix_error (_, _, _) ->
        (* EMFILE/ENFILE/ENOMEM/ENOBUFS and anything else transient:
           the listener must survive — count, back off, keep going.
           Hammering a fd-exhausted accept in a tight loop only starves
           the handlers that would release fds: wait 10 ms, doubling
           per consecutive error, at most 0.5 s. *)
        Obs.Counter.incr m_accept_errors;
        incr consecutive_errors;
        Thread.delay
          (Stdlib.min 0.5
             (0.01 *. (2.0 ** float_of_int (!consecutive_errors - 1))))
      | fd, _addr ->
        consecutive_errors := 0;
        Obs.Counter.incr m_connections;
        (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        (match server.config.sndbuf_bytes with
         | Some n -> (
           try Unix.setsockopt_int fd Unix.SO_SNDBUF n
           with Unix.Unix_error _ -> ())
         | None -> ());
        let verdict =
          with_lock server.lock (fun () ->
              if Atomic.get server.stop_flag then `Draining
              else if Atomic.get server.drain_flag then `Draining
              else if
                Hashtbl.length server.conns >= server.config.max_connections
              then `Busy
              else begin
                let id = server.next_conn_id in
                server.next_conn_id <- id + 1;
                Hashtbl.add server.conns id fd;
                let thread =
                  Thread.create (fun () -> conn_main server id fd) ()
                in
                Hashtbl.replace server.threads id thread;
                `Accepted
              end)
        in
        (match verdict with
         | `Accepted -> Obs.Gauge.add g_active 1.0
         | (`Busy | `Draining) as r ->
           (* load shedding: one line telling the client why, then a
              clean close — never a silent drop, never a hung accept *)
           Obs.Counter.incr m_shed;
           let line =
             match r with
             | `Busy ->
               Obs.Counter.incr m_rejected;
               P.err_line ~code:"busy" "connection limit reached"
             | `Draining ->
               Obs.Counter.incr m_drain_rejected;
               err_draining
           in
           (try write_all ~timeout_s:1.0 fd (line ^ "\n")
            with Conn_closed -> ());
           (try Unix.close fd with Unix.Unix_error _ -> ()))
    end
  done

(* ------------------------------ lifecycle ------------------------- *)

(* Writing to a socket whose peer already disconnected raises SIGPIPE,
   whose default disposition kills the whole process before the
   [Unix_error EPIPE] that [write_all] handles can even be raised — one
   client dropping mid-reply must not take the server down for every
   other tenant. Ignoring the signal turns those writes into plain
   EPIPE errors. Idempotent; guarded for platforms without SIGPIPE. *)
let ignore_sigpipe () =
  try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
  with Invalid_argument _ | Sys_error _ -> ()

let start t =
  with_lock t.lock (fun () ->
      if t.started then invalid_arg "Server.start: already started";
      t.started <- true);
  ignore_sigpipe ();
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (t.addr, t.config.port));
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, port) -> port
    | Unix.ADDR_UNIX _ -> assert false
  in
  t.listen_fd <- Some fd;
  t.bound_port <- port;
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t fd) ())

let port t =
  if t.bound_port < 0 then invalid_arg "Server.port: server not started";
  t.bound_port

let running t = t.started && not t.stopped

let shutdown_requested t = Atomic.get t.shutdown_req

let active_connections t =
  with_lock t.lock (fun () -> Hashtbl.length t.conns)

let stop t =
  let proceed =
    with_lock t.lock (fun () ->
        if t.stopped || not t.started then false
        else begin
          t.stopped <- true;
          true
        end)
  in
  if proceed then begin
    Atomic.set t.stop_flag true;
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (match t.listen_fd with
     | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
     | None -> ());
    t.listen_fd <- None;
    (* wake every connection handler out of its blocking read; the fd
       itself is closed by its own thread (or below if that thread is
       already gone) *)
    with_lock t.lock (fun () ->
        Hashtbl.iter
          (fun _ fd ->
            try Unix.shutdown fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ())
          t.conns);
    let threads =
      with_lock t.lock (fun () ->
          let live =
            Hashtbl.fold (fun _ th acc -> th :: acc) t.threads []
          in
          Hashtbl.reset t.threads;
          let all = List.rev_append t.dead_threads live in
          t.dead_threads <- [];
          all)
    in
    List.iter Thread.join threads;
    with_lock t.lock (fun () ->
        Hashtbl.iter
          (fun _ fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          t.conns;
        Hashtbl.reset t.conns);
    Obs.Gauge.set g_draining 0.0
  end

let wait ?(poll_s = 0.1) ?(on_tick = fun () -> ()) t =
  let rec go () =
    if t.stopped then ()
    else if Atomic.get t.shutdown_req && not (Atomic.get t.drain_flag) then begin
      (* a SHUTDOWN request is an orderly exit: drain first so every
         in-flight batch is answered, then stop *)
      drain t;
      go ()
    end
    else if
      Atomic.get t.drain_flag
      && (Clock.now () >= Atomic.get t.drain_until
          || active_connections t = 0)
    then stop t
    else begin
      on_tick ();
      Thread.delay poll_s;
      go ()
    end
  in
  go ()

let with_server ?config registry f =
  let t = create ?config registry in
  start t;
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)
