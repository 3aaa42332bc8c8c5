module Compaction = Stc.Compaction
module Guard_band = Stc.Guard_band
module Report = Stc.Report
module Spec = Stc.Spec
module Pool = Stc_process.Pool
module Obs = Stc_obs.Registry
module Clock = Stc_obs.Clock

(* Process-wide mirrors of the per-engine counters, plus the per-batch
   latency histogram the per-engine stats do not keep. *)
let m_devices = Obs.counter "stc_floor_devices_total"
let m_shipped = Obs.counter "stc_floor_shipped_total"
let m_scrapped = Obs.counter "stc_floor_scrapped_total"
let m_retested = Obs.counter "stc_floor_retested_total"
let m_batches = Obs.counter "stc_floor_batches_total"
let h_batch = Obs.histogram "stc_floor_batch_s"

type config = {
  batch_size : int;
  domains : int;
}

let default_config = { batch_size = 256; domains = 1 }

type bin = Ship | Scrap | Retest

type outcome = {
  bin : bin;
  verdict : Guard_band.verdict;
}

type stats = {
  devices : int;
  shipped : int;
  scrapped : int;
  retested : int;
  batches : int;
  elapsed_s : float;
  last_batch_s : float;
}

(* Per-engine counters live on the atomic registry representation so
   [stats] is a set of lock-free reads. The two timing fields stay
   plain mutable floats: only the submitting domain writes them. *)
type counters = {
  devices : Obs.Counter.t;
  shipped : Obs.Counter.t;
  scrapped : Obs.Counter.t;
  retested : Obs.Counter.t;
  batches : Obs.Counter.t;
}

type t = {
  flow : Compaction.flow;
  config : config;
  pool : Pool.t;
  counters : counters;
  mutable elapsed_s : float;
  mutable last_batch_s : float;
  mutable closed : bool;
}

let create ?(config = default_config) flow =
  if config.batch_size < 1 then
    invalid_arg "Floor.create: batch_size must be >= 1";
  if config.domains < 1 then invalid_arg "Floor.create: domains must be >= 1";
  {
    flow;
    config;
    pool = Pool.create ~domains:config.domains;
    counters =
      {
        devices = Obs.Counter.make ();
        shipped = Obs.Counter.make ();
        scrapped = Obs.Counter.make ();
        retested = Obs.Counter.make ();
        batches = Obs.Counter.make ();
      };
    elapsed_s = 0.0;
    last_batch_s = 0.0;
    closed = false;
  }

let flow t = t.flow
let config t = t.config

let full_test (flow : Compaction.flow) row =
  Array.length row = Array.length flow.Compaction.specs
  && Array.for_all2 Spec.passes flow.Compaction.specs row

let stats t =
  let c = t.counters in
  {
    devices = Obs.Counter.get c.devices;
    shipped = Obs.Counter.get c.shipped;
    scrapped = Obs.Counter.get c.scrapped;
    retested = Obs.Counter.get c.retested;
    batches = Obs.Counter.get c.batches;
    elapsed_s = t.elapsed_s;
    last_batch_s = t.last_batch_s;
  }

(* One batch: verdicts fan out across the pool (each row's verdict is a
   pure function of the row, so scheduling cannot change it), then the
   guard escalations run sequentially in row order on the submitting
   domain — the retest callback stands for the full-test station and
   need not be thread-safe. *)
let process ?retest t rows =
  if t.closed then invalid_arg "Floor.process: engine is shut down";
  let k = Array.length t.flow.Compaction.specs in
  Array.iter
    (fun row ->
      if Array.length row <> k then
        invalid_arg "Floor.process: row width does not match the flow's specs")
    rows;
  let n = Array.length rows in
  let verdicts = Array.make n Guard_band.Good in
  let out = Array.make n { bin = Ship; verdict = Guard_band.Good } in
  let batch = t.config.batch_size in
  let lo = ref 0 in
  while !lo < n do
    let hi = Stdlib.min n (!lo + batch) in
    let base = !lo in
    let t0 = Clock.now () in
    (* rows are claimed in chunks, not singly: one verdict costs only
       microseconds, so per-row atomic claims (and adjacent-cell verdict
       writes from different domains) would cost more than the work *)
    let len = hi - base in
    let chunk = Stdlib.max 1 (Stdlib.min 64 (len / t.config.domains)) in
    let n_chunks = (len + chunk - 1) / chunk in
    Pool.run t.pool ~n:n_chunks (fun c ->
        let first = base + (c * chunk) in
        let last = Stdlib.min (hi - 1) (first + chunk - 1) in
        for i = first to last do
          verdicts.(i) <- Compaction.flow_verdict t.flow rows.(i)
        done);
    let shipped = ref 0 and scrapped = ref 0 and retested = ref 0 in
    let escalate row =
      match retest with
      | None -> Retest
      | Some full_test ->
        if full_test row then begin
          incr shipped;
          Ship
        end
        else begin
          incr scrapped;
          Scrap
        end
    in
    for i = base to hi - 1 do
      let bin =
        match verdicts.(i) with
        | Guard_band.Good ->
          incr shipped;
          Ship
        | Guard_band.Bad ->
          incr scrapped;
          Scrap
        | Guard_band.Guard ->
          incr retested;
          escalate rows.(i)
      in
      out.(i) <- { bin; verdict = verdicts.(i) }
    done;
    let dt = Clock.now () -. t0 in
    let bump local mirror n =
      if n > 0 then begin
        Obs.Counter.add local n;
        Obs.Counter.add mirror n
      end
    in
    bump t.counters.devices m_devices (hi - base);
    bump t.counters.shipped m_shipped !shipped;
    bump t.counters.scrapped m_scrapped !scrapped;
    bump t.counters.retested m_retested !retested;
    bump t.counters.batches m_batches 1;
    Obs.Histogram.observe h_batch dt;
    t.elapsed_s <- t.elapsed_s +. dt;
    t.last_batch_s <- dt;
    lo := hi
  done;
  out

let throughput t =
  if t.elapsed_s <= 0.0 then 0.0
  else float_of_int (Obs.Counter.get t.counters.devices) /. t.elapsed_s

let report t =
  let s = stats t in
  let pct part =
    if s.devices = 0 then "-"
    else Report.pct (100.0 *. float_of_int part /. float_of_int s.devices)
  in
  Report.table ~title:"floor engine"
    ~header:[ "counter"; "value"; "share" ]
    [
      [ "devices"; string_of_int s.devices; "" ];
      [ "shipped"; string_of_int s.shipped; pct s.shipped ];
      [ "scrapped"; string_of_int s.scrapped; pct s.scrapped ];
      [ "retested (guard)"; string_of_int s.retested; pct s.retested ];
      [ "batches"; string_of_int s.batches; "" ];
      [ "elapsed"; Printf.sprintf "%.3f s" s.elapsed_s; "" ];
      [ "last batch"; Printf.sprintf "%.1f ms" (1000.0 *. s.last_batch_s); "" ];
      [ "throughput"; Printf.sprintf "%.0f devices/s" (throughput t); "" ];
    ]

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    Pool.shutdown t.pool
  end

let with_engine ?config flow f =
  let t = create ?config flow in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
