(* Per-layer metrics of a traced run. Each workload measures the layers
   on its own path from its own traffic; the layers it does not touch
   are measured by a small probe on the workload's data (printed as
   "probe", and exempt from the percentile self-check), so every traced
   run reports every per-layer metric. *)

module Trace = Stc_obs.Trace
module Mc = Stc_process.Montecarlo
module C = Stc.Compaction
module M = Stc.Metrics
module DD = Stc.Device_data
module Floor = Stc_floor.Floor
module Flow_io = Stc_floor.Flow_io

(* The device closure, timed per [batch] consecutive calls on a domain
   (and traced per call while tracing is on). *)
let timed_device ?(batch = 1) ctx (d : Mc.device) samples span_name =
  let name = Ctx.tagged ctx span_name in
  let timed = Meter.batched_timer samples ~batch in
  {
    d with
    Mc.simulate = (fun p -> timed (fun () -> Trace.with_span name (fun () -> d.Mc.simulate p)));
  }

let flow_bytes flow =
  match Flow_io.to_string flow with Ok s -> s | Error e -> failwith ("Flow_io: " ^ e)

(* ---- Stc_circuit ---- *)

(* [instance_lat]: the workload's own simulate latencies (op-amp);
   otherwise the replayed draws stand in. *)
let circuit ctx ~instance_lat =
  let r = Replay.run ~ctx ~seed:(Ctx.pop_seed ctx 0) ~instances:6 in
  let lat =
    match instance_lat with
    | Some lat ->
      Ctx.percentile_check "circuit.instance_s" (Array.length lat) 0.99;
      lat
    | None ->
      Printf.printf "probe circuit.instance_s from %d replayed draws (not checked)\n"
        r.Replay.instances;
      [| r.Replay.simulate_s |]
  in
  Ctx.emit ctx "circuit.instance_s.p50" "s" (Meter.percentile lat 0.5);
  Ctx.emit ctx "circuit.instance_s.p99" "s" (Meter.percentile lat 0.99);
  Ctx.emit ctx "circuit.alloc_words_per_instance" "words" r.Replay.alloc_words;
  Ctx.emit ctx "circuit.build_s" "s" r.Replay.build_s;
  Ctx.emit ctx "circuit.dc_s" "s" r.Replay.dc_s;
  Ctx.emit ctx "circuit.ac_s" "s" r.Replay.ac_s;
  Ctx.emit ctx "circuit.tran_s" "s" r.Replay.tran_s;
  Ctx.emit ctx "circuit.wave_s" "s" r.Replay.wave_s;
  Ctx.emit ctx "circuit.tran_steps" "count" r.Replay.tran_steps;
  let res = Replay.residual r in
  Ctx.emit ctx "circuit.replay_residual_pct" "%" (100.0 *. res);
  Ctx.self_check "circuit replay sums to the simulate time within 10%" (res <= 0.10)
    (Printf.sprintf "residual %.2f%% over %d draws" (100.0 *. res) r.Replay.instances)

(* ---- Stc_mems ---- *)

let mems_probe ctx =
  let samples = Meter.Samples.create () in
  let device = timed_device ctx (Stc.Experiment.mems_device ()) samples "mems.instance" in
  ignore (Mc.generate_parallel ~domains:1 ~seed:(Ctx.pop_seed ctx 1) device ~n:400 : Mc.dataset);
  Meter.mean (Meter.Samples.to_array samples)

(* ---- Stc.Compaction + Stc_svm ---- *)

let compaction ctx ~per_rep ~pooled ~call ~evaluate =
  let e = Ctx.emit ctx in
  e "compaction.call_s" "s" call;
  e "compaction.evaluate_s" "s" evaluate;
  (* greedy observes its SVM training and validation in histograms;
     eliminate's training is make_flow and its validation the test-set
     evaluation *)
  let greedy = per_rep "stc_compaction_train_s.count" > 0.0 in
  e "compaction.train_s" "s" (if greedy then per_rep "stc_compaction_train_s.sum" else call);
  e "compaction.validate_s" "s"
    (if greedy then per_rep "stc_compaction_validate_s.sum" else evaluate);
  e "compaction.candidates" "count" (per_rep "stc_compaction_candidates_total");
  e "compaction.accepted" "count" (per_rep "stc_compaction_accepted_total");
  e "compaction.escape_pct" "%" (M.escape_pct pooled);
  e "compaction.loss_pct" "%" (M.loss_pct pooled);
  e "compaction.guard_pct" "%" (M.guard_pct pooled);
  e "smo.solves" "count" (per_rep "stc_smo_solves_total");
  e "smo.iterations" "count" (per_rep "stc_smo_iterations_total");
  e "smo.warm_starts" "count" (per_rep "stc_smo_warm_starts_total");
  e "svm.kernel_evals" "count" (per_rep "stc_svm_kernel_evals_total");
  let hits = per_rep "stc_svm_cache_hits_total" in
  let misses = per_rep "stc_svm_cache_misses_total" in
  e "svm.cache_hit_ratio" "ratio" (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0)

(* ---- Stc_floor: Flow_io and the engine without the wire ---- *)

let flow_io ctx flow =
  let path =
    Ctx.work_file (Printf.sprintf "flow-%s-%d.stc" ctx.Ctx.workload ctx.Ctx.seed)
  in
  let t0 = Meter.now () in
  let saved = Ctx.span ctx "flow_io.save" (fun () -> Flow_io.save ~path flow) in
  let t1 = Meter.now () in
  let loaded = Ctx.span ctx "flow_io.load" (fun () -> Flow_io.load ~path) in
  let t2 = Meter.now () in
  Ctx.check ctx "the flow file reloads byte-identically"
    (saved = Ok ()
    && Meter.read_file path = flow_bytes flow
    && match loaded with Ok f -> flow_bytes f = flow_bytes flow | Error _ -> false);
  Ctx.emit ctx "flow_io.save_s" "s" (t1 -. t0);
  Ctx.emit ctx "flow_io.load_s" "s" (t2 -. t1);
  path

(* Floor.process on the rows, in-process: binning without the wire. *)
let floor_engine ctx flow rows =
  Floor.with_engine ~config:{ Floor.batch_size = 64; domains = 1 } flow (fun engine ->
      let retest = Floor.full_test flow in
      let t0 = Meter.now () in
      let passes = ref 0 in
      while !passes < 3 || Meter.now () -. t0 < 0.3 do
        let out = Ctx.span ctx "floor.process" (fun () -> Floor.process ~retest engine rows) in
        if !passes = 0 then
          Ctx.check ctx "Floor.process verdicts equal flow_verdict"
            (Array.for_all2 (fun o r -> o.Floor.verdict = C.flow_verdict flow r) out rows);
        incr passes
      done;
      let elapsed = Meter.now () -. t0 in
      let st = Floor.stats engine in
      Ctx.emit ctx "floor.devices_per_s" "1/s"
        (float_of_int (!passes * Array.length rows) /. elapsed);
      Ctx.emit ctx "floor.retest_ratio" "ratio"
        (float_of_int st.Floor.retested /. float_of_int (Stdlib.max 1 st.Floor.devices)))

(* ---- Stc_net: a stretch of traffic through `stc server` ---- *)

type serve = {
  testers : Child.tester list;
  server_before : Meter.snapshot;
  server_after : Meter.snapshot;
  server_cpu_s : float;
  server_rss_mb : float;
}

(* Drives both testers for [seconds]; every request is a counted
   operation, failed on an ERR reply or a verdict mismatch. *)
let drive ctx child ~flow ~rows ~expected ~seconds =
  let server_before = Child.metrics child in
  let cpu0 = Meter.proc_cpu_s child.Child.pid in
  let testers =
    Child.drive child ~flow ~rows ~expected ~batch:64 ~seconds ~ctx
  in
  let server_cpu_s = Meter.proc_cpu_s child.Child.pid -. cpu0 in
  let server_after = Child.metrics child in
  List.iter
    (fun (t : Child.tester) ->
      let name =
        Printf.sprintf "%s requests answered with the offline verdicts" (Child.path_name t.path)
      in
      Array.iteri (fun i _ -> Ctx.check ctx name (i >= t.failed)) t.latencies)
    testers;
  {
    testers;
    server_before;
    server_after;
    server_cpu_s;
    server_rss_mb = Meter.peak_rss_mb ~pid:(string_of_int child.Child.pid) ();
  }

let latencies sv = Array.concat (List.map (fun (t : Child.tester) -> t.latencies) sv.testers)

(* Net from the client side and the server's registry; floor batch
   latency from the server's stc_floor_batch_s. [probe] marks traffic
   too short for the percentile self-check. *)
let net ctx ~probe sv =
  let e = Ctx.emit ctx in
  let d = Meter.delta sv.server_before sv.server_after in
  let pcheck name n = if probe then Printf.printf "probe %s from n=%d (not checked)\n" name n
    else Ctx.percentile_check name n 0.99 in
  List.iter
    (fun (t : Child.tester) ->
      let s = Meter.sorted t.latencies in
      let name = Printf.sprintf "net.%s.request_s" (Child.path_name t.path) in
      e (name ^ ".p50") "s" (Meter.percentile s 0.5);
      e (name ^ ".p99") "s" (Meter.percentile s 0.99);
      pcheck name (Array.length s))
    sv.testers;
  let flushes = d "stc_net_flush_s.count" in
  e "net.flush_s" "s" (if flushes > 0.0 then d "stc_net_flush_s.sum" /. flushes else 0.0);
  e "net.wire_share" "ratio" (1.0 -. (d "stc_floor_batch_s.sum" /. Meter.sum (latencies sv)));
  e "net.backpressure_stalls" "count" (d "stc_net_backpressure_stalls_total");
  e "net.deadline_flushes" "count" (d "stc_net_deadline_flushes_total");
  e "net.errors" "count" (d "stc_net_errors_total");
  let hist q = Meter.hist_percentile sv.server_before sv.server_after "stc_floor_batch_s" q in
  let p50, n = hist 0.5 and p99, _ = hist 0.99 in
  e "floor.batch_s.p50" "s" p50;
  e "floor.batch_s.p99" "s" p99;
  pcheck "floor.batch_s" n

(* Flow_io, the engine, and the wire for one flow and its test rows.
   Without [serve] (offline workloads) a server is spawned on the flow
   for a one-second probe. *)
let serving ctx flow test ~serve =
  let rows = DD.values test in
  let path = flow_io ctx flow in
  floor_engine ctx flow rows;
  match serve with
  | Some sv -> net ctx ~probe:false sv
  | None ->
    let expected = Array.map (C.flow_verdict flow) rows in
    Child.with_server ~flows:[ ("probe", path) ] (fun child ->
        net ctx ~probe:true (drive ctx child ~flow:"probe" ~rows ~expected ~seconds:1.0))

(* ---- Stc_obs: the trace dump, its checks, and self-time shares ---- *)

(* Writes the spans as stc-trace-1, parses the dump back and checks it. *)
let finish_trace ctx =
  Trace.set_enabled false;
  let text = Trace.to_text () in
  let path = Ctx.work_file (Printf.sprintf "trace-%s-%d.txt" ctx.Ctx.workload ctx.Ctx.seed) in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  match Trace.parse text with
  | Error e ->
    Ctx.self_check "trace parses" false e;
    []
  | Ok spans ->
    let wf = Trace.check_well_formed spans in
    Ctx.self_check "trace is well formed" (wf = Ok ())
      (match wf with
       | Ok () -> Printf.sprintf "%d spans -> %s" (List.length spans) path
       | Error e -> e);
    spans

let span_total ctx spans name =
  let target = Ctx.tagged ctx name in
  List.fold_left
    (fun acc ((s : Trace.span), n) -> if n = target then acc +. s.dur_s else acc)
    0.0 spans

(* Layer shares of the traced wall time inside the timed part (the
   "bench.timed" span, itself excluded; see Split), and the workload's
   prediction: the [predict] layers hold most of that time. *)
let shares ctx spans ~predict =
  let win = Ctx.tagged ctx "bench.timed" in
  let inside =
    match List.find_opt (fun (_, n) -> n = win) spans with
    | None -> []
    | Some ((w : Trace.span), _) ->
      List.filter
        (fun ((s : Trace.span), n) ->
          n <> win && s.t_s >= w.t_s && Split.end_s s <= Split.end_s w)
        spans
  in
  let totals, all = Split.layer_wall inside in
  let share l =
    if all <= 0.0 then 0.0 else Option.value (Hashtbl.find_opt totals l) ~default:0.0 /. all
  in
  Printf.printf "layer self time in the timed part (%.3f s of traced wall):\n" all;
  List.iter
    (fun l ->
      Printf.printf "  %-12s %7.3f s  %5.1f%%\n" l
        (Option.value (Hashtbl.find_opt totals l) ~default:0.0)
        (100.0 *. share l);
      Ctx.emit ctx ("share." ^ l) "ratio" (share l))
    [ "bench"; "process"; "circuit"; "mems"; "compaction"; "cost"; "floor"; "net" ];
  let got = List.fold_left (fun acc l -> acc +. share l) 0.0 predict in
  Printf.printf "prediction %s: %s self time is most of the timed part: %.3f, %s\n"
    ctx.Ctx.workload (String.concat " + " predict) got
    (if got > 0.5 then "met" else "MISSED")
