module Compaction = Stc.Compaction
module Guard_band = Stc.Guard_band
module Floor = Stc_floor.Floor
module Flow_io = Stc_floor.Flow_io
module Obs = Stc_obs.Registry
module Clock = Stc_obs.Clock

let m_reloads = Obs.counter "stc_net_reloads_total"
let m_reload_failures = Obs.counter "stc_net_reload_failures_total"
let g_flows = Obs.gauge "stc_net_flows"
let m_breaker_trips = Obs.counter "stc_net_breaker_trips_total"
let m_breaker_recycles = Obs.counter "stc_net_breaker_recycles_total"
let m_breaker_shed_rows = Obs.counter "stc_net_breaker_shed_rows_total"
let g_breaker_open = Obs.gauge "stc_net_breaker_open"

type breaker_state = Closed | Open | Half_open

let breaker_state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type breaker_config = {
  failure_threshold : int;
  cooldown_s : float;
  cooldown_backoff : float;
  max_cooldown_s : float;
}

let default_breaker =
  {
    failure_threshold = 3;
    cooldown_s = 0.25;
    cooldown_backoff = 2.0;
    max_cooldown_s = 30.0;
  }

type entry = {
  name : string;
  lock : Mutex.t;
      (* serialises [process] against [reload]'s swap: holding it means
         the current engine has no in-flight batch *)
  floor_config : Floor.config;
  breaker_config : breaker_config;
  mutable flow : Compaction.flow;
  mutable engine : Floor.t;
  mutable version : int;
  mutable fingerprint : string;
  mutable source : string option;
  (* breaker state; all under [lock] *)
  mutable breaker : breaker_state;
  mutable failures : int;      (* consecutive engine failures *)
  mutable trips : int;         (* lifetime trips; drives the cooldown backoff *)
  mutable open_until : float;  (* monotonic deadline while [Open] *)
  mutable inject_faults : int; (* chaos failpoint: crash the next N batches *)
}

type t = {
  floor_config : Floor.config;
  breaker : breaker_config;
  entries : (string, entry) Hashtbl.t;
  registry_lock : Mutex.t;  (* guards the table, never held during I/O *)
  mutable closed : bool;
}

type status = {
  name : string;
  version : int;
  fingerprint : string;
  source : string option;
  specs : int;
  kept : int;
  breaker : breaker_state;
  breaker_failures : int;
  breaker_trips : int;
  stats : Floor.stats;
}

let create ?(floor_config = Floor.default_config) ?(breaker = default_breaker)
    () =
  if breaker.failure_threshold < 1 then
    invalid_arg "Registry.create: failure_threshold must be >= 1";
  if breaker.cooldown_s <= 0.0 || breaker.max_cooldown_s < breaker.cooldown_s
  then invalid_arg "Registry.create: cooldown must be positive and <= max";
  if breaker.cooldown_backoff < 1.0 then
    invalid_arg "Registry.create: cooldown_backoff must be >= 1";
  {
    floor_config;
    breaker;
    entries = Hashtbl.create 8;
    registry_lock = Mutex.create ();
    closed = false;
  }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let add t ~name ?source flow =
  if not (Protocol.flow_name_ok name) then
    Error (Printf.sprintf "invalid flow name %S" name)
  else
    match Flow_io.fingerprint flow with
    | Error e -> Error (Printf.sprintf "flow %S cannot be served: %s" name e)
    | Ok fingerprint ->
      with_lock t.registry_lock (fun () ->
          if t.closed then Error "registry is shut down"
          else if Hashtbl.mem t.entries name then
            Error (Printf.sprintf "flow %S is already registered" name)
          else begin
            let entry =
              {
                name;
                lock = Mutex.create ();
                floor_config = t.floor_config;
                breaker_config = t.breaker;
                flow;
                engine = Floor.create ~config:t.floor_config flow;
                version = 1;
                fingerprint;
                source;
                breaker = Closed;
                failures = 0;
                trips = 0;
                open_until = 0.0;
                inject_faults = 0;
              }
            in
            Hashtbl.add t.entries name entry;
            Obs.Gauge.set g_flows (float_of_int (Hashtbl.length t.entries));
            Ok entry
          end)

let load t ~name ~path =
  match Flow_io.load ~path with
  | Error e -> Error (Printf.sprintf "cannot load flow %S from %s: %s" name path e)
  | Ok flow -> add t ~name ~source:path flow

let find t name =
  with_lock t.registry_lock (fun () -> Hashtbl.find_opt t.entries name)

let names t =
  with_lock t.registry_lock (fun () ->
      List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.entries []))

let status (e : entry) =
  (* a racing reload can swap flow/engine between these reads; each
     field is still a consistent value and the fingerprint names the
     version the caller observed *)
  {
    name = e.name;
    version = e.version;
    fingerprint = e.fingerprint;
    source = e.source;
    specs = Array.length e.flow.Compaction.specs;
    kept = Array.length e.flow.Compaction.kept;
    breaker = e.breaker;
    breaker_failures = e.failures;
    breaker_trips = e.trips;
    stats = Floor.stats e.engine;
  }

let list t =
  List.filter_map (fun n -> Option.map status (find t n)) (names t)

let name (e : entry) = e.name
let flow (e : entry) = e.flow
let breaker (e : entry) = e.breaker

(* ---------------------------- circuit breaker --------------------- *)

(* A device the engine could not judge is never dropped: it is served
   [Retest]/[Guard] for a later full-test station, the bin a queued
   guard device gets. *)
let shed_outcome = { Floor.bin = Floor.Retest; verdict = Guard_band.Guard }

(* under [e.lock] *)
let close_breaker (e : entry) =
  if e.breaker <> Closed then Obs.Gauge.add g_breaker_open (-1.0);
  e.breaker <- Closed;
  e.failures <- 0

(* under [e.lock] *)
let trip (e : entry) =
  if e.breaker = Closed then Obs.Gauge.add g_breaker_open 1.0;
  e.breaker <- Open;
  e.trips <- e.trips + 1;
  e.failures <- 0;
  let cooldown =
    Stdlib.min e.breaker_config.max_cooldown_s
      (e.breaker_config.cooldown_s
      *. (e.breaker_config.cooldown_backoff ** float_of_int (e.trips - 1)))
  in
  e.open_until <- Clock.now () +. cooldown;
  Obs.Counter.incr m_breaker_trips

(* under [e.lock]: swap in a fresh engine built from the current flow;
   the caller shuts the stale engine down off the lock *)
let swap_engine (e : entry) =
  let stale = e.engine in
  e.engine <- Floor.create ~config:e.floor_config e.flow;
  Obs.Counter.incr m_breaker_recycles;
  stale

let recycle (e : entry) =
  let stale =
    with_lock e.lock (fun () ->
        let stale = swap_engine e in
        close_breaker e;
        e.trips <- 0;
        stale)
  in
  Floor.shutdown stale

let inject_engine_faults (e : entry) n =
  if n < 0 then invalid_arg "Registry.inject_engine_faults: n must be >= 0";
  with_lock e.lock (fun () -> e.inject_faults <- n)

let reload ?(force = false) ?path t ~name =
  match find t name with
  | None ->
    Obs.Counter.incr m_reload_failures;
    Error (Printf.sprintf "unknown flow %S" name)
  | Some entry -> (
    let source = match path with Some _ -> path | None -> entry.source in
    match source with
    | None ->
      Obs.Counter.incr m_reload_failures;
      Error (Printf.sprintf "flow %S has no source path to reload from" name)
    | Some src -> (
      (* parse + fingerprint the candidate entirely before touching the
         live entry: a bad file must leave serving untouched *)
      match Flow_io.load ~path:src with
      | Error e ->
        Obs.Counter.incr m_reload_failures;
        Error (Printf.sprintf "reload of flow %S from %s failed: %s" name src e)
      | Ok candidate -> (
        match Flow_io.fingerprint candidate with
        | Error e ->
          Obs.Counter.incr m_reload_failures;
          Error (Printf.sprintf "reload of flow %S: %s" name e)
        | Ok fingerprint ->
          if fingerprint = entry.fingerprint && not force then begin
            (* same canonical bytes: re-saving the current flow is a
               no-op, not an engine churn *)
            entry.source <- Some src;
            Ok (`Unchanged (status entry))
          end
          else begin
            let replacement = Floor.create ~config:t.floor_config candidate in
            let old_engine =
              (* the entry lock is held by any in-flight batch, so
                 locking it here IS the drain: the swap waits for the
                 running batch, and the next batch sees the new flow *)
              with_lock entry.lock (fun () ->
                  let old = entry.engine in
                  entry.flow <- candidate;
                  entry.engine <- replacement;
                  entry.fingerprint <- fingerprint;
                  entry.version <- entry.version + 1;
                  entry.source <- Some src;
                  (* a fresh engine starts with a clean slate: failures
                     of the replaced engine say nothing about it *)
                  close_breaker entry;
                  entry.trips <- 0;
                  old)
            in
            Floor.shutdown old_engine;
            Obs.Counter.incr m_reloads;
            Ok (`Reloaded (status entry))
          end)))

let process ?(escalate = true) (entry : entry) rows =
  let stale = ref None in
  let result =
    with_lock entry.lock (fun () ->
        (* cooldown elapsed: auto-recycle the engine (fresh pool) and
           probe with this very batch *)
        (match entry.breaker with
         | Open when Clock.now () >= entry.open_until ->
           stale := Some (swap_engine entry);
           entry.breaker <- Half_open
         | _ -> ());
        match entry.breaker with
        | Open ->
          (* tripped: shed without touching the engine *)
          Obs.Counter.add m_breaker_shed_rows (Array.length rows);
          Ok (Array.map (fun _ -> shed_outcome) rows)
        | Closed | Half_open -> (
          let flow = entry.flow in
          let width = Array.length flow.Compaction.specs in
          match
            Array.find_opt (fun row -> Array.length row <> width) rows
          with
          | Some bad ->
            Error
              (Printf.sprintf
                 "row width %d does not match flow %S (%d specs, version %d)"
                 (Array.length bad) entry.name width entry.version)
          | None -> (
            let retest =
              if escalate then Some (Floor.full_test flow) else None
            in
            let inject = entry.inject_faults > 0 in
            if inject then entry.inject_faults <- entry.inject_faults - 1;
            match
              if inject then
                failwith "injected engine fault (chaos failpoint)"
              else
                Floor.process ?retest entry.engine rows
            with
            | outcomes ->
              (* a successful probe (or any healthy batch) closes *)
              close_breaker entry;
              Ok outcomes
            | exception Invalid_argument e ->
              (* caller misuse (bad rows, config): not an engine crash *)
              Error e
            | exception _ ->
              (* the engine itself raised: count it, trip on repeat (or
                 instantly when the half-open probe fails), and still
                 answer every accepted device *)
              entry.failures <- entry.failures + 1;
              if
                entry.breaker = Half_open
                || entry.failures >= entry.breaker_config.failure_threshold
              then trip entry;
              Obs.Counter.add m_breaker_shed_rows (Array.length rows);
              Ok (Array.map (fun _ -> shed_outcome) rows))))
  in
  (* joining the crashed engine's pool happens off the entry lock, like
     reload's swap, so serving never blocks on the teardown *)
  (match !stale with Some engine -> Floor.shutdown engine | None -> ());
  result

let shutdown t =
  let entries =
    with_lock t.registry_lock (fun () ->
        if t.closed then []
        else begin
          t.closed <- true;
          Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
        end)
  in
  List.iter
    (fun e -> with_lock e.lock (fun () -> Floor.shutdown e.engine))
    entries
