(* `stc server` as a child process, and the closed-loop testers that
   drive it over loopback: one connection on the BATCH path, one on the
   pipelined BIN + FLUSH path, each in its own domain so that trace
   spans nest per connection. *)

module Client = Stc_net.Client

type t = { pid : int; port : int; out : in_channel }

(* The CLI binary built next to this one: _build/default/bin/stc_cli.exe. *)
let cli_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "stc_cli.exe")

(* SIGTERM makes the server drain and exit; one that has not exited
   after five seconds is killed. Either way it is reaped. *)
let stop t =
  let signal s = try Unix.kill t.pid s with Unix.Unix_error _ -> () in
  let rec reap flags tries =
    match Unix.waitpid flags t.pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.05;
      reap flags (tries - 1)
    | 0, _ ->
      signal Sys.sigkill;
      reap [] 0
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap flags tries
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  signal Sys.sigterm;
  reap [ Unix.WNOHANG ] 100;
  close_in_noerr t.out

(* Spawns the server on an ephemeral port and returns once it answers
   PING. [flows] are (route, path) pairs. *)
let spawn ~flows =
  let exe = cli_exe () in
  let args =
    exe :: "server" :: "--listen" :: "0"
    :: List.concat_map (fun (name, path) -> [ "--flow"; name ^ "=" ^ path ]) flows
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let rec port () =
    match input_line out with
    | line -> (
      match Scanf.sscanf_opt line "listening on %_s@:%d" Fun.id with
      | Some p -> p
      | None -> port ())
    | exception End_of_file -> -1
  in
  let t = { pid; port = port (); out } in
  let ping () =
    let c = Client.connect ~port:t.port () in
    Fun.protect ~finally:(fun () -> Client.quit c) (fun () -> Client.ping c)
  in
  match if t.port < 0 then Error "exited before listening" else ping () with
  | Ok () -> t
  | Error e ->
    stop t;
    failwith ("stc server did not come up: " ^ e)

let with_server ~flows f =
  let t = spawn ~flows in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)

(* The server's registry, through the METRICS verb. *)
let metrics t =
  let c = Client.connect ~port:t.port () in
  Fun.protect ~finally:(fun () -> Client.quit c) (fun () ->
      match Result.bind (Client.metrics c ()) Stc_obs.Registry.parse_text with
      | Ok pairs -> Meter.snapshot_of_list pairs
      | Error e -> failwith ("METRICS: " ^ e))

type path = Batch | Stream

let path_name = function Batch -> "batch" | Stream -> "stream"

(* What one tester connection saw. *)
type tester = {
  path : path;
  latencies : float array;  (** seconds per request *)
  elapsed : float;          (** seconds in the loop *)
  rows : int;               (** rows answered *)
  failed : int;             (** ERR replies and verdict mismatches *)
  passes : float array;     (** seconds per pass over all rows *)
  first_pass : Stc.Guard_band.verdict array option;
      (** served verdicts of the first full pass, in row order *)
}

(* A closed loop: send the next [batch] rows (cycling through [rows]) as
   soon as the previous reply is in, until [deadline]. Every served
   verdict is compared with [expected], the offline
   [Compaction.flow_verdict] of the same row. *)
let tester ~port ~flow ~path ~rows ~expected ~batch ~deadline ~ctx =
  let n = Array.length rows in
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.quit c) @@ fun () ->
  let lat = ref [] and passes = ref [] in
  let failed = ref 0 and served = ref 0 in
  let start = Meter.now () in
  let pass_start = ref start in
  let first = Array.copy expected and first_done = ref false in
  let pos = ref 0 in
  while Meter.now () < deadline do
    let idx = Array.init batch (fun k -> (!pos + k) mod n) in
    let chunk = Array.map (fun i -> rows.(i)) idx in
    let t0 = Meter.now () in
    let reply =
      Ctx.span ctx ("net." ^ path_name path) (fun () ->
          match path with
          | Batch -> Client.bin_batch c ~flow chunk
          | Stream -> Client.stream c ~flow chunk)
    in
    lat := (Meter.now () -. t0) :: !lat;
    (match reply with
     | Error _ -> incr failed
     | Ok outcomes ->
       served := !served + Array.length outcomes;
       let ok = ref (Array.length outcomes = batch) in
       Array.iteri
         (fun k o ->
           let v = o.Stc_floor.Floor.verdict in
           if v <> expected.(idx.(k)) then ok := false;
           if not !first_done then first.(idx.(k)) <- v)
         outcomes;
       if not !ok then incr failed);
    if !pos + batch >= n then begin
      let t = Meter.now () in
      passes := (t -. !pass_start) :: !passes;
      pass_start := t;
      first_done := true
    end;
    pos := (!pos + batch) mod n
  done;
  {
    path;
    latencies = Array.of_list (List.rev !lat);
    elapsed = Meter.now () -. start;
    rows = !served;
    failed = !failed;
    passes = Array.of_list (List.rev !passes);
    first_pass = (if !first_done then Some first else None);
  }

(* Both testers at once, one domain each, for [seconds]. *)
let drive t ~flow ~rows ~expected ~batch ~seconds ~ctx =
  let deadline = Meter.now () +. seconds in
  let run path () =
    Ctx.span ctx "bench.tester" (fun () ->
        tester ~port:t.port ~flow ~path ~rows ~expected ~batch ~deadline ~ctx)
  in
  let stream = Domain.spawn (run Stream) in
  let batch_side = try Ok (run Batch ()) with e -> Error e in
  let stream_side = Domain.join stream in
  match batch_side with Ok b -> [ b; stream_side ] | Error e -> raise e
