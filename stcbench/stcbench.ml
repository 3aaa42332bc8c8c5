(* The stc benchmark. One run is one workload at one seed:

     stcbench --workload opamp_compact|mems_compact|floor_serve
              --seed N --seconds S --trace 0|1

   It sets up (several times, reporting the median), measures for about
   S seconds, checks the program's outputs, and prints as its last line
   one JSON object {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. README.md beside this file says why each workload exists
   and which layer metric should move which end-to-end metric. *)

module Trace = Stc_obs.Trace
module Mc = Stc_process.Montecarlo
module C = Stc.Compaction
module E = Stc.Experiment
module M = Stc.Metrics
module DD = Stc.Device_data
module Flow_io = Stc_floor.Flow_io

(* the load generator's parallelism: domains, threads and connections *)
let nproc = 2

(* set-ups per run; setup_s is their median *)
let setups = 5

(* no repetition starts after this long, whatever the minimums, so a run
   always exits well inside three minutes *)
let hard_stop_s = 120.0

(* batch_p90_ms: the 90th percentile over windows of at least 100
   batches (one repetition on the offline workloads, 100 requests on
   floor_serve), so that every window has ten samples beyond it. Not the
   p99: on a shared two-vCPU guest the p99 of a 3 ms floor request is
   set by host preemptions, and its spread over sets of eight to ten
   runs of the same code was 12-41 % of its median, against 4-22 % for
   the p90 and 5-17 % for the mean. The layers' own p99s stay in the
   per-layer metrics. *)
let tail_q = 0.90

let tail_percentile series = Meter.windowed_percentile ~min:100 series tail_q

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         Array.length x = Array.length y
         && Array.for_all2
              (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
              x y)
       a b

(* The flow survives Flow_io byte for byte. *)
let roundtrip_ok flow =
  match Flow_io.to_string flow with
  | Error _ -> false
  | Ok s -> (
    match Flow_io.of_string s with
    | Ok f -> Flow_io.to_string f = Ok s
    | Error _ -> false)

(* Review aids, deliberately not pass/fail: a numerics re-pin changes
   them without being a failure. *)
let print_digests ctx specs flow =
  let b = Buffer.create 65536 in
  Array.iter (Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x))) specs;
  Printf.printf "digest %s seed=%d spec-matrix=%s flow=%s\n" ctx.Ctx.workload ctx.Ctx.seed
    (Digest.to_hex (Digest.string (Buffer.contents b)))
    (match Flow_io.fingerprint flow with Ok f -> f | Error e -> e)

let add_counts (a : M.counts) (b : M.counts) =
  {
    M.total = a.total + b.total;
    truth_good = a.truth_good + b.truth_good;
    truth_bad = a.truth_bad + b.truth_bad;
    escapes = a.escapes + b.escapes;
    losses = a.losses + b.losses;
    guards = a.guards + b.guards;
    correct_good = a.correct_good + b.correct_good;
    correct_bad = a.correct_bad + b.correct_bad;
  }

(* Devices the flow does not bin right first time: escapes, yield
   losses and guard-band retests. *)
let misbinned_pct (c : M.counts) =
  100.0 *. float_of_int (c.escapes + c.losses + c.guards) /. float_of_int c.total

let mems_both = Array.append E.mems_cold_indices E.mems_hot_indices

(* Sec. 5.2 tri-temperature cost of the "both" flow on [test]. *)
let tri_saving test (c : M.counts) =
  let room = Array.init (Array.length E.mems_room_specs) Fun.id in
  let room_pass = ref 0 in
  for i = 0 to DD.n_instances test - 1 do
    if DD.passes_subset test ~instance:i ~subset:room then incr room_pass
  done;
  (Stc.Cost.tri_temperature ~n:c.total ~room_pass:!room_pass ~guard:c.guards ())
    .Stc.Cost.saving_pct

(* The metrics every workload reports with --trace 0. *)
type e2e = {
  setup_s : float array;
  wall_s : float;
  cpu_s : float;
  peak_rss_mb : float;
  devices_per_s : float;
  latency_s : float array list;  (** time-ordered, one array per source *)
  p90_s : float;  (** the windowed p90 of [latency_s] *)
  counts : M.counts;
  tests_dropped : float;
  cost_saving_pct : float;
}

let emit_e2e ctx r =
  let e = Ctx.emit ctx in
  Printf.printf "set-ups: %s s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") r.setup_s)));
  e "setup_s" "s" (Meter.median r.setup_s);
  e "wall_s" "s" r.wall_s;
  e "cpu_s" "s" r.cpu_s;
  e "peak_rss_mb" "MB" r.peak_rss_mb;
  e "devices_per_s" "1/s" r.devices_per_s;
  (* the mean, not the median: per-call latencies are a mixture of the
     two vCPUs' speeds, whose median jumps between the modes *)
  e "batch_mean_ms" "ms" (1000.0 *. Meter.mean (Array.concat r.latency_s));
  e "batch_p90_ms" "ms" (1000.0 *. r.p90_s);
  e "misbinned_pct" "%" (misbinned_pct r.counts);
  e "tests_dropped" "count" r.tests_dropped;
  e "cost_saving_pct" "%" r.cost_saving_pct;
  (* the share of operations that succeeded: never 0, unlike the
     failure share it stands in for *)
  e "ok_frac" "ratio"
    (float_of_int (ctx.Ctx.attempted - ctx.Ctx.failed) /. float_of_int ctx.Ctx.attempted)

(* ------------------------------------------------------------------ *)
(* Offline workloads: opamp_compact and mems_compact                   *)
(* ------------------------------------------------------------------ *)

(* What the batch latency of an offline workload times: the unit of work
   of the layer the workload stresses. *)
type batch =
  | Simulate of int  (** this many consecutive simulate calls on one domain *)
  | Bin of int  (** evaluate_flow on this many consecutive test devices *)

(* A repetition's stages: [stage] times a named stage inside its span;
   [evaluate] is Compaction.evaluate_flow, in timed chunks under [Bin]. *)
type stage = {
  stage : 'a. string -> (unit -> 'a) -> 'a;
  evaluate : C.flow -> DD.t -> M.counts;
}

(* evaluate_flow on consecutive chunks of [k] devices, each timed into
   [samples]. A device's verdict depends on its row alone, so the summed
   counts equal one evaluate_flow on the whole set. *)
let evaluate_in_chunks samples k flow test =
  let specs = DD.specs test and rows = DD.values test in
  let n = Array.length rows in
  let rec go i acc =
    if i >= n then acc
    else begin
      let len = Stdlib.min k (n - i) in
      let chunk = DD.make ~specs ~values:(Array.sub rows i len) in
      let t0 = Meter.now () in
      let c = C.evaluate_flow flow chunk in
      Meter.Samples.add samples (Meter.now () -. t0);
      go (i + len) (add_counts acc c)
    end
  in
  go 0 M.empty

type offline = {
  device : unit -> Mc.device;
  specs : Stc.Spec.t array;
  n_train : int;
  n_test : int;
  pops : int;  (** distinct populations; the accuracy metrics pool them *)
  ref_k : int;  (** instances regenerated at 1 domain, in set-up, for the bit check *)
  batch : batch;  (** what batch_mean_ms and batch_p90_ms time *)
  min_s : float;  (** the timed part lasts at least this long, whatever --seconds *)
  sim_span : string;
  call : string;  (** the compaction call's stage *)
  predict : string list;  (** layers expected to hold most self time *)
  compact : stage -> train:DD.t -> test:DD.t -> C.flow * M.counts * float;
      (** compaction, evaluation and cost: the flow, its test counts
          and the cost saving in % *)
}

(* `stc opamp` at its default size (800 train, 400 test): greedy
   compaction in the functional examination order, evaluated on the test
   set; cost with every spec at unit cost. *)
let opamp =
  {
    device = (fun () -> E.opamp_device ());
    specs = E.opamp_specs;
    n_train = 800;
    n_test = 400;
    pops = 2;
    ref_k = 12;
    batch = Simulate 1;
    min_s = 0.0;
    sim_span = "circuit.instance";
    call = "compaction.greedy";
    predict = [ "circuit" ];
    compact =
      (fun { stage; evaluate } ~train ~test ->
        let r =
          stage "compaction.greedy" (fun () ->
              C.greedy ~order:(Stc.Order.Given E.opamp_examination_order) E.opamp_config
                ~train ~test)
        in
        let flow = r.C.flow in
        let counts = stage "compaction.evaluate" (fun () -> evaluate flow test) in
        let cost =
          stage "cost.per_spec" (fun () ->
              Stc.Cost.per_spec_flow
                ~spec_costs:(Array.make (Array.length flow.C.specs) 1.0)
                ~kept:flow.C.kept
                ~guard_rate:(float_of_int counts.M.guards /. float_of_int counts.M.total))
        in
        (flow, counts, 100.0 *. cost.Stc.Cost.saving_fraction));
  }

(* `stc mems` at the size of bench/main.ml (1000 train, 1000 test):
   eliminate the cold, hot and both temperature sets, then
   the tri-temperature cost of "both". Compaction.eliminate is make_flow
   then evaluate_flow; they are called apart so each is its own stage.
   A run lasts at least 30 s, like the op-amp's two repetitions: SVM
   training is memory-bound, and on a shared guest its speed follows the
   host's load, which shifts every half minute or so. In 10-second runs
   every MEMS time moved 0.18-0.31 of its median between ten runs of
   the same code, where the op-amp's minute-long runs moved 0.11-0.14. *)
let mems =
  {
    device = (fun () -> E.mems_device ());
    specs = E.mems_specs;
    n_train = 1000;
    n_test = 1000;
    pops = 10;
    ref_k = 2000;
    batch = Bin 20;
    min_s = 30.0;
    sim_span = "mems.instance";
    call = "compaction.make_flow";
    predict = [ "compaction" ];
    compact =
      (fun { stage; evaluate } ~train ~test ->
        let eliminate dropped =
          let flow =
            stage "compaction.make_flow" (fun () -> C.make_flow E.mems_config train ~dropped)
          in
          (flow, stage "compaction.evaluate" (fun () -> evaluate flow test))
        in
        ignore (eliminate E.mems_cold_indices);
        ignore (eliminate E.mems_hot_indices);
        let flow, counts = eliminate mems_both in
        (flow, counts, stage "cost.tri_temperature" (fun () -> tri_saving test counts)));
  }

type rep = {
  pop : int;
  traced_rep : bool;
  wall : float;
  cpu : float;
  staged : float;  (** sum of the stage times *)
  gen_s : float;
  gen_cpu : float;
  discarded : int;
  rep_counts : M.counts;
  saving : float;
  dropped : int;
  flow_digest : string;  (** of the flow's Flow_io bytes *)
  roundtrip : bool;  (** the flow round-tripped through Flow_io *)
}

(* A repetition's population, test set and flow. A run keeps them for
   the first repetition of each population only, so that peak memory
   does not grow with the number of repetitions it fits in. *)
type products = { data : Mc.dataset; test : DD.t; flow : C.flow }

(* One pass of the pipeline: simulate, split, compact, evaluate, cost. *)
let run_rep ctx w device bins ~pop ~traced_rep =
  let staged = ref 0.0 in
  let stage name f =
    let t0 = Meter.now () in
    let r = Ctx.span ctx name f in
    staged := !staged +. (Meter.now () -. t0);
    r
  in
  let t0 = Meter.now () and c0 = Meter.cpu_s () in
  let data, gen_s, gen_cpu, test, (flow, rep_counts, saving) =
    Ctx.span ctx "bench.rep" (fun () ->
        let data =
          stage "process.generate" (fun () ->
              Mc.generate_parallel ~domains:nproc ~seed:(Ctx.pop_seed ctx pop) device
                ~n:(w.n_train + w.n_test))
        in
        let gen_s = Meter.now () -. t0 and gen_cpu = Meter.cpu_s () -. c0 in
        let train, test =
          stage "process.split" (fun () ->
              let a, b = Mc.split data ~at:w.n_train in
              (DD.of_montecarlo ~specs:w.specs a, DD.of_montecarlo ~specs:w.specs b))
        in
        let evaluate =
          match w.batch with
          | Bin k -> evaluate_in_chunks bins k
          | Simulate _ -> C.evaluate_flow
        in
        (data, gen_s, gen_cpu, test, w.compact { stage; evaluate } ~train ~test))
  in
  let wall = Meter.now () -. t0 and cpu = Meter.cpu_s () -. c0 in
  ( {
      pop;
      traced_rep;
      wall;
      cpu;
      staged = !staged;
      gen_s;
      gen_cpu;
      discarded = data.Mc.discarded;
      rep_counts;
      saving;
      dropped = Array.length flow.C.dropped;
      flow_digest = Digest.string (Layers.flow_bytes flow);
      roundtrip = roundtrip_ok flow;
    },
    { data; test; flow } )

let run_offline ctx w =
  (* set-up: the device closure, and the first instances of population 0
     regenerated at one domain as the bit-for-bit reference, once on each
     of the two domains at the same time. On a shared two-vCPU guest the
     two vCPUs often run at different speeds, and a process stays on one:
     with a single regeneration, every set-up of one run took 0.40-0.44 s
     and every set-up of the next 0.55-0.63 s, so the median over ten
     runs jumped between the two. Two at once take as long as the slower
     vCPU, wherever the process runs. The run uses the first set-up and
     times the same set-up again, untraced, before each of the next
     repetitions and then after the timed part. *)
  let setup_s = ref [] in
  let setup () =
    let t0 = Meter.now () in
    let device = w.device () in
    (* a device's lazy calibration must not be forced by two domains at
       once: simulate the nominal draw on this one first *)
    ignore (device.Mc.simulate (Stc_process.Variation.nominal_values device.Mc.params));
    let regenerate () =
      Mc.generate_parallel ~domains:1 ~seed:(Ctx.pop_seed ctx 0) device ~n:w.ref_k
    in
    let other = Domain.spawn regenerate in
    let reference = regenerate () in
    let reference' = Domain.join other in
    setup_s := (Meter.now () -. t0) :: !setup_s;
    (device, reference, reference')
  in
  let device, reference, reference' = setup () in
  Ctx.check ctx "the reference regenerated on two domains at once agrees"
    (bits_equal reference.Mc.specs reference'.Mc.specs
    && bits_equal reference.Mc.inputs reference'.Mc.inputs);
  (* simulate calls are timed in batches of 16 where a single call is too
     short to time on its own *)
  let sim_batch = match w.batch with Simulate k -> k | Bin _ -> 16 in
  let sims = Meter.Samples.create () and bins = Meter.Samples.create () in
  let device = Layers.timed_device ~batch:sim_batch ctx device sims w.sim_span in
  let samples = match w.batch with Simulate _ -> sims | Bin _ -> bins in
  (* A traced run makes its repetitions on one population, alternately
     untraced and traced, so that it measures its own tracing overhead
     on the same work. *)
  let pops = if ctx.Ctx.traced then 1 else w.pops in
  let held = Array.make pops None in
  let reps = ref [] and n = ref 0 in
  let before = Meter.snapshot () in
  let t_start = Meter.now () and cpu_start = Meter.cpu_s () in
  let elapsed () = Meter.now () -. t_start in
  Trace.set_enabled ctx.Ctx.traced;
  Ctx.span ctx "bench.timed" (fun () ->
      while
        elapsed () < hard_stop_s
        && (!n < pops
           || elapsed () < Float.max ctx.Ctx.seconds w.min_s
           || (ctx.Ctx.traced && !n < 2))
      do
        let traced_rep = ctx.Ctx.traced && !n mod 2 = 1 in
        (* each repetition starts from a compacted heap, as a fresh
           `stc opamp` / `stc mems` process would *)
        Gc.compact ();
        if !n > 0 && List.length !setup_s < setups then begin
          Trace.set_enabled false;
          ignore (setup ())
        end;
        Trace.set_enabled traced_rep;
        let pop = !n mod pops in
        (match run_rep ctx w device bins ~pop ~traced_rep with
         | r, products ->
           Ctx.count ctx true;
           reps := r :: !reps;
           if held.(pop) = None then held.(pop) <- Some products
         | exception e ->
           Printf.printf "repetition failed: %s\n" (Printexc.to_string e);
           Ctx.count ctx false);
        incr n;
        Trace.set_enabled ctx.Ctx.traced
      done);
  let timed_wall = elapsed () and timed_cpu = Meter.cpu_s () -. cpu_start in
  let after = Meter.snapshot () in
  while List.length !setup_s < setups do
    ignore (setup ())
  done;
  let reps = Array.of_list (List.rev !reps) in
  (* the first repetition of each population that completed *)
  let earliest r = List.find (fun e -> e.pop = r.pop) (Array.to_list reps) in
  let distinct = Array.of_list (List.filter (fun r -> earliest r == r) (Array.to_list reps)) in
  (* population 0 fails the bit check when none of its repetitions
     completed; the run still reports *)
  let first = held.(0) in
  Ctx.check ctx "first instances at 1 domain equal the 2-domain population"
    (match first with
     | Some f ->
       bits_equal (Array.sub f.data.Mc.specs 0 w.ref_k) reference.Mc.specs
       && bits_equal (Array.sub f.data.Mc.inputs 0 w.ref_k) reference.Mc.inputs
     | None -> false);
  Array.iter
    (fun r ->
      Ctx.check ctx "the flow round-trips through Flow_io" r.roundtrip;
      Ctx.check ctx "every test device is binned" (r.rep_counts.M.total = w.n_test);
      let earlier = earliest r in
      if earlier != r then
        Ctx.check ctx "a repeated population gives the same flow and counts"
          (earlier.flow_digest = r.flow_digest && earlier.rep_counts = r.rep_counts))
    reps;
  Option.iter (fun f -> print_digests ctx f.data.Mc.specs f.flow) first;
  (* The accuracy metrics pool, over the distinct populations, each
     flow's test set and, untimed, every device of the next population:
     devices the flow never trained on either. A 400-device op-amp test
     set alone misbins about 17 devices, too few for a steady share. *)
  let held_out r =
    let next = (r.pop + 1) mod pops in
    match (held.(r.pop), held.(next)) with
    | Some own, Some other when next <> r.pop ->
      add_counts r.rep_counts
        (C.evaluate_flow own.flow (DD.of_montecarlo ~specs:w.specs other.data))
    | _ -> r.rep_counts
  in
  let pooled = Array.fold_left (fun acc r -> add_counts acc (held_out r)) M.empty distinct in
  let lat = Meter.sorted (Meter.Samples.to_array samples) in
  let nreps = float_of_int (Array.length reps) in
  let instances = float_of_int (w.n_train + w.n_test) in
  Printf.printf "timed part: %d repetitions in %.2f s (%.2f s CPU), %d batches\n"
    (Array.length reps) timed_wall timed_cpu (Array.length lat);
  Array.iter
    (fun r ->
      Printf.printf "repetition population %d: %.3f s, %d dropped, %.2f%% misbinned\n" r.pop
        r.wall r.dropped (misbinned_pct r.rep_counts))
    reps;
  Printf.printf "pooled over %d populations: %d held-out devices, %.3f%% misbinned\n"
    (Array.length distinct) pooled.M.total (misbinned_pct pooled);
  (* the p90 windows are whole repetitions: a MEMS repetition's batches
     come from three flows of different cost, and windows of 100 batches
     cut across them in a mix that moved the median window *)
  let p90, smallest =
    Meter.windowed_percentile
      ~min:(Stdlib.max 100 (Array.length lat / Stdlib.max 1 (Array.length reps)))
      [ Meter.Samples.to_array samples ] tail_q
  in
  Ctx.percentile_check "batch latency (smallest p90 window)" smallest tail_q;
  let walls sel =
    Array.of_list (List.filter_map (fun r -> if sel r then Some r.wall else None) (Array.to_list reps))
  in
  if not ctx.Ctx.traced then
    emit_e2e ctx
      {
        setup_s = Array.of_list !setup_s;
        wall_s = Meter.median (walls (fun _ -> true));
        cpu_s = Meter.median (Array.map (fun r -> r.cpu) reps);
        peak_rss_mb = Meter.peak_rss_mb ();
        devices_per_s = instances /. Meter.median (walls (fun _ -> true));
        latency_s = [ Meter.Samples.to_array samples ];
        p90_s = p90;
        counts = pooled;
        tests_dropped =
          Meter.mean (Array.map (fun r -> float_of_int r.dropped) distinct);
        cost_saving_pct = Meter.mean (Array.map (fun r -> r.saving) distinct);
      }
  else begin
    let e = Ctx.emit ctx in
    let per_rep name = Meter.delta before after name /. nreps in
    let gen_s = Meter.sum (Array.map (fun r -> r.gen_s) reps) in
    let discarded = Meter.mean (Array.map (fun r -> float_of_int r.discarded) reps) in
    e "montecarlo.generate_s" "s" (gen_s /. nreps);
    e "montecarlo.instances" "count" instances;
    e "montecarlo.discarded" "count" discarded;
    e "montecarlo.useful_ratio" "ratio" (instances /. (instances +. discarded));
    e "montecarlo.cpu_util" "ratio"
      (Meter.sum (Array.map (fun r -> r.gen_cpu) reps) /. (gen_s *. float_of_int nproc));
    e "pool.queue_wait_s" "s" (per_rep "stc_pool_queue_wait_s.sum");
    let worst =
      Array.fold_left (fun acc r -> Float.max acc ((r.wall -. r.staged) /. r.wall)) 0.0 reps
    in
    e "stage.residual_pct" "%" (100.0 *. worst);
    Ctx.self_check "stage spans sum to wall_s within 2%" (worst <= 0.02)
      (Printf.sprintf "worst residual %.3f%% over %d repetitions" (100.0 *. worst)
         (Array.length reps));
    e "trace.overhead_pct" "%"
      (100.0
      *. ((Meter.median (walls (fun r -> r.traced_rep))
          /. Meter.median (walls (fun r -> not r.traced_rep)))
         -. 1.0));
    let is_opamp = w.sim_span = "circuit.instance" in
    let sim_lat = Meter.sorted (Meter.Samples.to_array sims) in
    Layers.circuit ctx ~instance_lat:(if is_opamp then Some sim_lat else None);
    e "mems.instance_s" "s"
      (if is_opamp then Layers.mems_probe ctx else Meter.mean sim_lat /. float_of_int sim_batch);
    Option.iter (fun f -> Layers.serving ctx f.flow f.test ~serve:None) first;
    let spans = Layers.finish_trace ctx in
    let traced = List.length (List.filter (fun r -> r.traced_rep) (Array.to_list reps)) in
    let per_traced name = Layers.span_total ctx spans name /. float_of_int (max 1 traced) in
    Layers.compaction ctx ~per_rep ~pooled ~call:(per_traced w.call)
      ~evaluate:(per_traced "compaction.evaluate");
    Layers.shares ctx spans ~predict:w.predict
  end

(* ------------------------------------------------------------------ *)
(* floor_serve                                                          *)
(* ------------------------------------------------------------------ *)

(* The MEMS population behind the served "both" flow, trained at the
   mems_compact size; the test rows are what the testers send, 64
   requests of 64 rows per pass, enough devices for a steady
   misbinned_pct. *)
let floor_train = 1000

let floor_test = 4096

let run_floor ctx =
  let traced = ctx.Ctx.traced in
  let path = Ctx.work_file (Printf.sprintf "serve-%d.stc" ctx.Ctx.seed) in
  let samples = Meter.Samples.create () in
  let before = Meter.snapshot () in
  Trace.set_enabled traced;
  (* set-up: population, training, evaluation, flow save, and a server
     spawned on the saved flow that answers PING *)
  let setup () =
    let device = E.mems_device () in
    (* the device's calibration is a lazy value that two domains must
       not force at once: simulate the nominal draw first *)
    ignore (device.Mc.simulate (Stc_process.Variation.nominal_values device.Mc.params));
    let device = Layers.timed_device ctx device samples "mems.instance" in
    let t0 = Meter.now () and c0 = Meter.cpu_s () in
    let data =
      Ctx.span ctx "process.generate" (fun () ->
          Mc.generate_parallel ~domains:nproc ~seed:(Ctx.pop_seed ctx 0) device
            ~n:(floor_train + floor_test))
    in
    let gen = (Meter.now () -. t0, Meter.cpu_s () -. c0) in
    let a, b = Mc.split data ~at:floor_train in
    let train = DD.of_montecarlo ~specs:E.mems_specs a in
    let test = DD.of_montecarlo ~specs:E.mems_specs b in
    let flow =
      Ctx.span ctx "compaction.make_flow" (fun () ->
          C.make_flow E.mems_config train ~dropped:mems_both)
    in
    let counts = Ctx.span ctx "compaction.evaluate" (fun () -> C.evaluate_flow flow test) in
    (match Ctx.span ctx "flow_io.save" (fun () -> Flow_io.save ~path flow) with
     | Ok () -> ()
     | Error e -> failwith ("cannot save the flow: " ^ e));
    let child = Ctx.span ctx "net.spawn" (fun () -> Child.spawn ~flows:[ ("both", path) ]) in
    (data, test, flow, counts, child, gen)
  in
  let setup_s = Array.make setups 0.0 and ready = ref None in
  for i = 0 to setups - 1 do
    (* an earlier set-up's server is stopped; the last one serves *)
    Option.iter (fun (_, _, _, _, child, _) -> Child.stop child) !ready;
    let t0 = Meter.now () in
    ready := Some (setup ());
    setup_s.(i) <- Meter.now () -. t0
  done;
  let setup_after = Meter.snapshot () in
  let data, test, flow, offline_counts, child, (gen_s, gen_cpu) = Option.get !ready in
  Fun.protect ~finally:(fun () -> Child.stop child) @@ fun () ->
  let rows = DD.values test in
  let expected = Array.map (C.flow_verdict flow) rows in
  let reference =
    Mc.generate_parallel ~domains:1 ~seed:(Ctx.pop_seed ctx 0) (E.mems_device ()) ~n:200
  in
  Ctx.check ctx "first instances at 1 domain equal the 2-domain population"
    (bits_equal (Array.sub data.Mc.specs 0 200) reference.Mc.specs
    && bits_equal (Array.sub data.Mc.inputs 0 200) reference.Mc.inputs);
  Ctx.check ctx "the flow round-trips through Flow_io" (roundtrip_ok flow);
  Ctx.check ctx "the served flow file holds the flow's bytes"
    (Meter.read_file path = Layers.flow_bytes flow);
  print_digests ctx data.Mc.specs flow;
  (* the timed part, after an untimed second of warm-up and from a
     compacted heap, so that the set-ups' garbage is not collected
     during it; a traced run serves the first half untraced *)
  let drive seconds = Layers.drive ctx child ~flow:"both" ~rows ~expected ~seconds in
  Trace.set_enabled false;
  ignore (drive 1.0);
  Gc.compact ();
  Trace.set_enabled traced;
  let plain =
    if traced then begin
      Trace.set_enabled false;
      let p = drive (ctx.Ctx.seconds /. 2.0) in
      Trace.set_enabled true;
      Some p
    end
    else None
  in
  let cpu0 = Meter.cpu_s () and t0 = Meter.now () in
  let sv =
    Ctx.span ctx "bench.timed" (fun () ->
        drive (if traced then ctx.Ctx.seconds /. 2.0 else ctx.Ctx.seconds))
  in
  let elapsed = Meter.now () -. t0 and client_cpu = Meter.cpu_s () -. cpu0 in
  let lat = Meter.sorted (Layers.latencies sv) in
  let served = List.fold_left (fun acc (t : Child.tester) -> acc + t.rows) 0 sv.testers in
  let passes = Array.concat (List.map (fun (t : Child.tester) -> t.passes) sv.testers) in
  let first =
    Option.value ~default:expected
      (List.find_map (fun (t : Child.tester) -> t.first_pass) sv.testers)
  in
  let truth = Array.init (DD.n_instances test) (fun i -> DD.passes_all test ~instance:i) in
  let counts = M.tally ~truth ~verdicts:first in
  Ctx.check ctx "served verdicts reproduce the offline evaluation" (counts = offline_counts);
  Printf.printf "timed part: %d requests, %d devices in %.2f s\n" (Array.length lat) served
    elapsed;
  let series = List.map (fun (t : Child.tester) -> t.latencies) sv.testers in
  List.iter
    (fun (t : Child.tester) ->
      Printf.printf "%s path: %d requests, mean %.3f ms, windowed p90 %.3f ms\n"
        (Child.path_name t.path) (Array.length t.latencies)
        (1000.0 *. Meter.mean t.latencies)
        (1000.0 *. fst (tail_percentile [ t.latencies ])))
    sv.testers;
  let p90, smallest = tail_percentile series in
  Ctx.percentile_check "batch latency (requests, smallest p90 window)" smallest tail_q;
  if not traced then
    emit_e2e ctx
      {
        setup_s;
        wall_s = Meter.median passes;
        cpu_s = (client_cpu +. sv.Layers.server_cpu_s) /. float_of_int (max 1 (Array.length passes));
        peak_rss_mb = sv.Layers.server_rss_mb;
        devices_per_s = float_of_int served /. elapsed;
        latency_s = series;
        p90_s = p90;
        counts;
        tests_dropped = float_of_int (Array.length flow.C.dropped);
        cost_saving_pct = tri_saving test counts;
      }
  else begin
    let e = Ctx.emit ctx in
    let per_setup name = Meter.delta before setup_after name /. float_of_int setups in
    let inst = float_of_int (floor_train + floor_test) in
    let discarded = float_of_int data.Mc.discarded in
    e "montecarlo.generate_s" "s" gen_s;
    e "montecarlo.instances" "count" inst;
    e "montecarlo.discarded" "count" discarded;
    e "montecarlo.useful_ratio" "ratio" (inst /. (inst +. discarded));
    e "montecarlo.cpu_util" "ratio" (gen_cpu /. (gen_s *. float_of_int nproc));
    e "pool.queue_wait_s" "s" (per_setup "stc_pool_queue_wait_s.sum");
    (* each tester's loop time is its requests plus client bookkeeping *)
    let worst =
      List.fold_left
        (fun acc (t : Child.tester) ->
          Float.max acc ((t.elapsed -. Meter.sum t.latencies) /. t.elapsed))
        0.0 sv.testers
    in
    e "stage.residual_pct" "%" (100.0 *. worst);
    Ctx.self_check "request spans sum to the testers' wall within 2%" (worst <= 0.02)
      (Printf.sprintf "worst residual %.3f%%" (100.0 *. worst));
    let mean_lat s = Meter.mean (Layers.latencies s) in
    e "trace.overhead_pct" "%"
      (match plain with Some p -> 100.0 *. ((mean_lat sv /. mean_lat p) -. 1.0) | None -> 0.0);
    Layers.circuit ctx ~instance_lat:None;
    e "mems.instance_s" "s" (Meter.mean (Meter.Samples.to_array samples));
    Layers.serving ctx flow test ~serve:(Some sv);
    let spans = Layers.finish_trace ctx in
    let per_setup_span name = Layers.span_total ctx spans name /. float_of_int setups in
    Layers.compaction ctx ~per_rep:per_setup ~pooled:counts
      ~call:(per_setup_span "compaction.make_flow")
      ~evaluate:(per_setup_span "compaction.evaluate");
    Layers.shares ctx spans ~predict:[ "net"; "floor" ]
  end

(* ------------------------------------------------------------------ *)
(* Command line and result line                                         *)
(* ------------------------------------------------------------------ *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME opamp_compact | mems_compact | floor_serve");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long the timed part runs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "stcbench --workload NAME --seed N --seconds S --trace 0|1";
  let ctx =
    Ctx.create ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
  in
  (* the span ring is sized to the run: a few thousand spans a second *)
  if ctx.Ctx.traced then Trace.set_capacity (50_000 + (5_000 * int_of_float !seconds));
  (match !workload with
   | "opamp_compact" -> run_offline ctx opamp
   | "mems_compact" -> run_offline ctx mems
   | "floor_serve" -> run_floor ctx
   | w ->
     prerr_endline ("stcbench: unknown workload " ^ w);
     exit 2);
  Ctx.print_checks ();
  if ctx.Ctx.traced then Ctx.emit ctx "selfcheck.misses" "count" (float_of_int !Ctx.misses);
  let metrics = List.rev ctx.Ctx.metrics in
  List.iter (fun (name, unit_, v) -> Printf.printf "metric %-36s %16.6g %s\n" name v unit_) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (ctx.Ctx.failed = 0) ctx.Ctx.attempted ctx.Ctx.failed
    (String.concat ", "
       (List.map
          (fun (name, unit_, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
          metrics))
