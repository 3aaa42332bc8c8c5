module Compaction = Stc.Compaction
module Floor = Stc_floor.Floor
module Flow_io = Stc_floor.Flow_io
module Obs = Stc_obs.Registry

let m_reloads = Obs.counter "stc_net_reloads_total"
let m_reload_failures = Obs.counter "stc_net_reload_failures_total"
let g_flows = Obs.gauge "stc_net_flows"

type entry = {
  name : string;
  lock : Mutex.t;
      (* serialises [process] against [reload]'s swap: holding it means
         the current engine has no in-flight batch *)
  mutable flow : Compaction.flow;
  mutable engine : Floor.t;
  mutable version : int;
  mutable fingerprint : string;
  mutable source : string option;
}

type t = {
  floor_config : Floor.config;
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
  stats : Floor.stats;
}

let create ?(floor_config = Floor.default_config) () =
  {
    floor_config;
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
                flow;
                engine = Floor.create ~config:t.floor_config flow;
                version = 1;
                fingerprint;
                source;
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
    stats = Floor.stats e.engine;
  }

let list t =
  List.filter_map (fun n -> Option.map status (find t n)) (names t)

let name (e : entry) = e.name
let flow (e : entry) = e.flow

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
                  old)
            in
            Floor.shutdown old_engine;
            Obs.Counter.incr m_reloads;
            Ok (`Reloaded (status entry))
          end)))

let process ?(escalate = true) (entry : entry) rows =
  with_lock entry.lock (fun () ->
      let flow = entry.flow in
      let width = Array.length flow.Compaction.specs in
      match Array.find_opt (fun row -> Array.length row <> width) rows with
      | Some bad ->
        Error
          (Printf.sprintf
             "row width %d does not match flow %S (%d specs, version %d)"
             (Array.length bad) entry.name width entry.version)
      | None -> (
        let retest = if escalate then Some (Floor.full_test flow) else None in
        match Floor.process ?retest entry.engine rows with
        | outcomes -> Ok outcomes
        | exception Invalid_argument e -> Error e))

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
