(* Command-line driver for the test-compaction experiments.

   stc opamp  — greedy compaction of the 11 op-amp specification tests;
                --save-flow/--save-test persist the flow and a device CSV
   stc mems   — hot/cold temperature-test elimination + cost analysis
   stc sweep  — accuracy vs training-set size
   stc specs  — print the specification tables
   stc serve  — reload a flow and bin a CSV of devices on the floor engine
   stc server — persistent multi-client TCP flow server with hot reload
   stc flow   — inspect saved flow files (stc flow info FILE)

   Exit codes: 0 success; 1 genuine failure (option out of range, server
   crash); 2 data error (corrupt flow file, bad CSV, unusable journal);
   124+ cmdliner usage errors. *)

module Experiment = Stc.Experiment
module Device_data = Stc.Device_data
module Compaction = Stc.Compaction
module Metrics = Stc.Metrics
module Cost = Stc.Cost
module Spec = Stc.Spec
module Order = Stc.Order
module Report = Stc.Report
module Journal = Stc.Journal
module Flow_io = Stc_floor.Flow_io
module Device_csv = Stc_floor.Device_csv
module Floor = Stc_floor.Floor

open Cmdliner

(* Data errors — a corrupt flow file, a bad CSV, an unusable journal,
   a population whose draws fail to simulate past the failure cap —
   are the operator's problem, not a crash: one clean line on stderr,
   exit code 2. An option out of range gets the same line with exit
   code 1, before any simulation runs; cmdliner uses 124+ for usage
   errors. *)
let die_with code fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "stc: %s\n" s;
      exit code)
    fmt

let die_data fmt = die_with 2 fmt
let die_option fmt = die_with 1 fmt

let guard_data_errors f =
  try f () with
  | Sys_error e -> die_data "%s" e
  | Failure e -> die_data "%s" e
  | Stc_process.Montecarlo.Too_many_failures e -> die_data "too many failed simulations: %s" e

(* ------------------------------ options --------------------------- *)

let seed =
  Arg.(value & opt int 2005 & info [ "seed" ] ~docv:"SEED" ~doc:"Monte-Carlo seed.")

let n_train =
  Arg.(value & opt int 800 & info [ "train" ] ~docv:"N" ~doc:"Training instances.")

let n_test =
  Arg.(value & opt int 400 & info [ "test" ] ~docv:"N" ~doc:"Test instances.")

let tolerance =
  Arg.(value & opt float 0.01
       & info [ "tolerance" ] ~docv:"FRAC"
           ~doc:"Prediction-error tolerance e_T (fraction).")

let guard =
  Arg.(value & opt (some float) None
       & info [ "guard" ] ~docv:"FRAC"
           ~doc:"Guard-band boundary perturbation (fraction of the boundary, \
                 in [0, 1)).")

let order_conv =
  let parse = function
    | "functional" -> Ok `Functional
    | "failures" -> Ok `Failures
    | "correlation" -> Ok `Correlation
    | "cluster" -> Ok `Cluster
    | "mi" -> Ok `Mi
    | s -> Error (`Msg (Printf.sprintf "unknown order %S" s))
  in
  let print fmt o =
    Format.pp_print_string fmt
      (match o with
       | `Functional -> "functional"
       | `Failures -> "failures"
       | `Correlation -> "correlation"
       | `Cluster -> "cluster"
       | `Mi -> "mi")
  in
  Arg.conv (parse, print)

(* The op-amp examination order an [--order] choice names. *)
let opamp_order = function
  | `Functional -> Order.Given Experiment.opamp_examination_order
  | `Failures -> Order.By_failure_count
  | `Correlation -> Order.By_correlation
  | `Cluster -> Order.By_cluster 0.8
  | `Mi -> Order.By_mutual_information

let order =
  Arg.(value & opt order_conv `Functional
       & info [ "order" ] ~docv:"STRATEGY"
           ~doc:"Examination order: functional | failures | correlation | \
                 cluster | mi (mutual-information ranking, least \
                 informative first).")

let learner_conv =
  let parse = function
    | "svr" -> Ok `Svr
    | "svc" -> Ok `Svc
    | "mlp" -> Ok `Mlp
    | s -> Error (`Msg (Printf.sprintf "unknown learner %S" s))
  in
  let print fmt l =
    Format.pp_print_string fmt
      (match l with `Svr -> "svr" | `Svc -> "svc" | `Mlp -> "mlp")
  in
  Arg.conv (parse, print)

let learner =
  Arg.(value & opt learner_conv `Svr
       & info [ "learner" ] ~docv:"L"
           ~doc:"Statistical model: svr | svc | mlp. The MLP is admitted \
                 by the differential promotion gate (test/test_learner.ml): \
                 it matches or beats SVR escape and yield loss on the \
                 op-amp and MEMS benches at equal tolerance. Flows trained \
                 with mlp persist as stc-flow-2.")

let grid_resolution =
  Arg.(value & opt (some int) None
       & info [ "grid" ] ~docv:"RES"
           ~doc:"Enable grid training-data compaction at this resolution.")

let enrich_arg =
  Arg.(value & flag
       & info [ "enrich" ]
           ~doc:"Boundary-biased training population: a uniform pilot fits \
                 per-spec margins, then the remaining budget is drawn near \
                 the acceptance boundary with importance weights recorded so \
                 population statistics stay unbiased. Deterministic per seed \
                 at any core count.")

let pilot_arg =
  Arg.(value & opt (some int) None
       & info [ "pilot" ] ~docv:"N"
           ~doc:"Pilot population size for $(b,--enrich) (default: \
                 a quarter of the training size, at least 10).")

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE"
           ~doc:"Write-ahead journal for the greedy loop (stc-journal-1 \
                 format): every accept/reject decision is flushed to \
                 $(docv) before the loop advances, so a killed run can \
                 continue with $(b,--resume) instead of retraining.")

let resume_arg =
  Arg.(value & flag
       & info [ "resume" ]
           ~doc:"Replay the decisions recorded in $(b,--journal) and \
                 continue from the first unjournaled candidate. The \
                 resumed run produces a flow bit-identical to an \
                 uninterrupted one; a journal from a different config, \
                 population, or order is rejected.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"After the run, export the process metric registry \
                 (stc-metrics-1 text format: SMO iterations, kernel \
                 evaluations and cache hit rate, pool queue/job \
                 latencies, compaction accept/reject counts, floor \
                 batch latencies) to $(docv).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Enable span tracing for this run and write the retained \
                 spans (stc-trace-1 text format, one per-candidate-drop \
                 span tree per greedy step) to $(docv).")

(* A write error, also one raised by the flush at close, is a data
   error: it exits 2 before the caller prints its "->" line. *)
let write_text_file path contents =
  try
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
        output_string oc contents;
        close_out oc)
  with Sys_error e -> die_data "cannot write %s: %s" path e

(* Observability envelope for a command: tracing is switched on for the
   run when --trace was given, and both exports are written even when
   the wrapped command raises (but not when it exits: a data error dies
   before there is anything worth dumping). *)
let with_obs ~metrics ~trace f =
  if trace <> None then Stc_obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      (match metrics with
       | None -> ()
       | Some path ->
         write_text_file path (Stc_obs.Registry.to_text ());
         Printf.printf "metrics -> %s\n" path);
      match trace with
      | None -> ()
      | Some path ->
        write_text_file path (Stc_obs.Trace.to_text ());
        Stc_obs.Trace.set_enabled false;
        Printf.printf "trace -> %s\n" path)
    f

(* The journalled greedy loop behind --journal/--resume. The journal is
   bound to this exact run by its fingerprint, so resuming against
   changed data or flags dies cleanly instead of silently diverging. *)
let greedy_with_journal ~journal ~resume ~order config ~train ~test =
  match journal with
  | None ->
    if resume then die_data "--resume requires --journal FILE";
    Compaction.greedy ~order config ~train ~test
  | Some path ->
    let examination = Order.compute order train in
    let fingerprint =
      Compaction.journal_fingerprint config ~train ~test ~order:examination
    in
    let fresh () =
      match Journal.create ~path ~fingerprint with
      | Error e -> die_data "cannot create journal %s: %s" path e
      | Ok w ->
        Fun.protect
          ~finally:(fun () -> Journal.close w)
          (fun () ->
            Compaction.greedy ~order ~journal:w config ~train ~test)
    in
    if not resume then fresh ()
    else if not (Sys.file_exists path) then begin
      Printf.printf "journal %s does not exist yet: starting fresh\n%!" path;
      fresh ()
    end
    else begin
      match Journal.recover ~path with
      | Error e -> die_data "cannot resume journal %s: %s" path e
      | Ok (r, salvaged) ->
        if salvaged > 0 then
          Printf.printf
            "journal %s: dropped a final record cut mid-write (%d bytes)\n%!"
            path salvaged;
        if r.Journal.fingerprint <> fingerprint then
          die_data
            "journal %s was written for a different run (config, seed, \
             population, or order changed)"
            path;
        let n = Array.length r.Journal.entries in
        if r.Journal.complete then begin
          Printf.printf "journal %s is complete: replaying all %d steps\n%!"
            path n;
          Compaction.greedy ~order ~replay:r.Journal.entries config
            ~train ~test
        end
        else begin
          Printf.printf "resuming %s: replaying %d journaled steps\n%!" path n;
          match Journal.open_append ~path ~fingerprint with
          | Error e -> die_data "cannot append to journal %s: %s" path e
          | Ok w ->
            Fun.protect
              ~finally:(fun () -> Journal.close w)
              (fun () ->
                Compaction.greedy ~order ~journal:w
                  ~replay:r.Journal.entries config ~train ~test)
        end
    end

(* Range checks for the population, grid, tolerance and guard options,
   run before any simulation. An empty test set would judge every
   candidate at zero prediction error, a grid needs at least one cell
   per axis, and a NaN tolerance would reject every one
   (an error is never <= nan). A guard fraction must lie in [0, 1) — the
   range a saved flow may carry — and must leave every spec range of the
   device non-empty once the tight guard-band model narrows it. *)
let check_at_least option min n =
  if n < min then die_option "%s must be >= %d (got %d)" option min n

let check_population ~n_train ~n_test =
  check_at_least "--train" 1 n_train;
  check_at_least "--test" 1 n_test

let check_grid = Option.iter (check_at_least "--grid" 1)

let check_tolerance t =
  if not (t >= 0.0 && t < 1.0) then
    die_option "--tolerance must be in [0, 1) (got %g)" t

let check_guard specs = function
  | None -> ()
  | Some g ->
    if not (g >= 0.0 && g < 1.0) then
      die_option "--guard must be in [0, 1) (got %g)" g;
    Array.iter
      (fun (s : Spec.t) ->
        match Spec.perturb s ~fraction:(-.g) with
        | _ -> ()
        | exception Invalid_argument _ ->
          die_option "--guard %g collapses the range of %S" g s.Spec.name)
      specs

let make_config (base : Compaction.config) ~tolerance ~guard ~learner
    ~grid_resolution =
  let learner =
    match learner with
    | `Svr -> Compaction.Epsilon_svr { c = 10.0; epsilon = 0.1; gamma = None }
    | `Svc -> Compaction.C_svc { c = 10.0; gamma = None }
    | `Mlp -> Stc.Learner.default_mlp
  in
  let grid =
    Option.map
      (fun resolution -> { Stc.Grid_compact.default_config with resolution })
      grid_resolution
  in
  {
    base with
    Compaction.tolerance;
    learner;
    grid;
    guard_fraction =
      (match guard with Some g -> g | None -> base.Compaction.guard_fraction);
  }

let print_flow_metrics flow test =
  let counts = Compaction.evaluate_flow flow test in
  Printf.printf
    "escape %s  loss %s  guard %s  (test yield %.1f%%)\n"
    (Report.pct (Metrics.escape_pct counts))
    (Report.pct (Metrics.loss_pct counts))
    (Report.pct (Metrics.guard_pct counts))
    (Metrics.yield_pct counts)

(* ------------------------------ opamp ----------------------------- *)

(* Either the historical uniform populations, or (--enrich) a
   boundary-biased training set with importance weights plus a uniform
   test set. *)
let opamp_populations ~enrich ~pilot ~seed ~n_train ~n_test =
  if not enrich then begin
    Printf.printf "generating %d op-amp instances (seed %d)...\n%!"
      (n_train + n_test) seed;
    Experiment.generate_opamp ~seed ~n_train ~n_test ()
  end
  else begin
    let pilot =
      match pilot with Some p -> p | None -> Stdlib.max 10 (n_train / 4)
    in
    if pilot <= 0 || pilot >= n_train then
      die_option "--pilot must be between 1 and %d (got %d with --train %d)"
        (n_train - 1) pilot n_train;
    Printf.printf
      "generating %d op-amp instances (seed %d, enriched: pilot %d)...\n%!"
      (n_train + n_test) seed pilot;
    let train, test, stats =
      Experiment.generate_opamp_enriched ~seed ~pilot ~n_train ~n_test ()
    in
    Printf.printf
      "enrichment: %d pilot + %d enriched, %d proposals, acceptance %.1f%%, \
       boundary hit rate %.1f%%%s\n"
      stats.Stc_process.Enrich.pilot stats.Stc_process.Enrich.enriched
      stats.Stc_process.Enrich.proposals
      (100.0 *. stats.Stc_process.Enrich.acceptance_rate)
      (100.0 *. stats.Stc_process.Enrich.boundary_hit_rate)
      (if stats.Stc_process.Enrich.surrogate_ok then ""
       else " (surrogate fit degraded to uniform)");
    Printf.printf "train yield %.1f%% raw, %.1f%% weighted\n"
      (100.0 *. Device_data.yield_fraction train)
      (100.0 *. Device_data.weighted_yield_fraction train);
    (train, test)
  end

let save_flow_arg =
  Arg.(value & opt (some string) None
       & info [ "save-flow" ] ~docv:"FILE"
           ~doc:"Write the compacted flow to $(docv) (stc-flow-1, or \
                 stc-flow-2 when the model is an MLP), ready for \
                 $(b,stc serve --flow) and $(b,stc server --flow).")

let save_test_arg =
  Arg.(value & opt (some string) None
       & info [ "save-test" ] ~docv:"FILE"
           ~doc:"Write the held-out test population as a device CSV, ready \
                 for $(b,stc serve --input).")

let run_opamp seed n_train n_test tolerance guard order learner grid_resolution
    enrich pilot save_flow save_test journal resume metrics trace =
  check_population ~n_train ~n_test;
  check_grid grid_resolution;
  check_tolerance tolerance;
  check_guard Experiment.opamp_specs guard;
  guard_data_errors @@ fun () ->
  with_obs ~metrics ~trace @@ fun () ->
  let train, test =
    opamp_populations ~enrich ~pilot ~seed ~n_train ~n_test
  in
  Printf.printf "train yield %.1f%%, test yield %.1f%%\n"
    (100.0 *. Device_data.yield_fraction train)
    (100.0 *. Device_data.yield_fraction test);
  let config =
    make_config Experiment.opamp_config ~tolerance ~guard ~learner
      ~grid_resolution
  in
  let result =
    greedy_with_journal ~journal ~resume ~order:(opamp_order order) config
      ~train ~test
  in
  let specs = Device_data.specs train in
  List.iter
    (fun s ->
      Printf.printf "  %-24s e_p=%5.2f%%  %s\n"
        specs.(s.Compaction.spec_index).Spec.name
        (100.0 *. s.Compaction.error)
        (if s.Compaction.accepted then "eliminated" else "kept"))
    result.Compaction.steps;
  let flow = result.Compaction.flow in
  Printf.printf "kept %d of %d tests; "
    (Array.length flow.Compaction.kept)
    (Array.length specs);
  print_flow_metrics flow test;
  Option.iter
    (fun path ->
      match Flow_io.save ~path flow with
      | Ok () -> Printf.printf "flow -> %s\n" path
      | Error e -> die_data "cannot save flow: %s" e)
    save_flow;
  Option.iter
    (fun path ->
      (try
         Device_csv.write ~path ~specs:(Device_data.specs test)
           ~rows:(Device_data.values test)
       with Sys_error e -> die_data "cannot save test population: %s" e);
      Printf.printf "test population (%d devices) -> %s\n"
        (Device_data.n_instances test) path)
    save_test

let opamp_cmd =
  let term =
    Term.(const run_opamp $ seed $ n_train $ n_test $ tolerance $ guard $ order
          $ learner $ grid_resolution $ enrich_arg $ pilot_arg
          $ save_flow_arg $ save_test_arg
          $ journal_arg $ resume_arg $ metrics_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "opamp"
       ~doc:"Greedy compaction of the op-amp test set; optionally save the \
             flow and the test population for serving")
    term

(* ------------------------------- mems ----------------------------- *)

let run_mems seed n_train n_test tolerance guard learner grid_resolution =
  check_population ~n_train ~n_test;
  check_grid grid_resolution;
  check_tolerance tolerance;
  check_guard Experiment.mems_specs guard;
  guard_data_errors @@ fun () ->
  Printf.printf "generating %d MEMS instances (seed %d)...\n%!"
    (n_train + n_test) seed;
  let train, test = Experiment.generate_mems ~seed ~n_train ~n_test () in
  Printf.printf "train yield %.1f%%, test yield %.1f%%\n"
    (100.0 *. Device_data.yield_fraction train)
    (100.0 *. Device_data.yield_fraction test);
  let config =
    make_config Experiment.mems_config ~tolerance ~guard ~learner
      ~grid_resolution
  in
  let eliminate name dropped =
    let counts, _ = Compaction.eliminate config ~train ~test ~dropped in
    Printf.printf "eliminate %-5s escape %s  loss %s  guard %s\n" name
      (Report.pct (Metrics.escape_pct counts))
      (Report.pct (Metrics.loss_pct counts))
      (Report.pct (Metrics.guard_pct counts));
    counts
  in
  let (_ : Metrics.counts) = eliminate "-40C" Experiment.mems_cold_indices in
  let (_ : Metrics.counts) = eliminate "80C" Experiment.mems_hot_indices in
  (* cost story for eliminating both temperature tests *)
  let counts =
    eliminate "both"
      (Array.append Experiment.mems_cold_indices Experiment.mems_hot_indices)
  in
  let room_pass =
    let room = Array.init 5 (fun k -> k) in
    let count = ref 0 in
    for i = 0 to Device_data.n_instances test - 1 do
      if Device_data.passes_subset test ~instance:i ~subset:room then incr count
    done;
    !count
  in
  let r =
    Cost.tri_temperature ~n:counts.Metrics.total ~room_pass
      ~guard:counts.Metrics.guards ()
  in
  Printf.printf "cost: full $%.0f -> compacted $%.0f (saving %.1f%%)\n"
    r.Cost.full r.Cost.compacted r.Cost.saving_pct

let mems_cmd =
  let term =
    Term.(const run_mems $ seed $ n_train $ n_test $ tolerance $ guard
          $ learner $ grid_resolution)
  in
  Cmd.v
    (Cmd.info "mems" ~doc:"Eliminate the MEMS hot/cold temperature tests")
    term

(* ------------------------------- sweep ----------------------------- *)

let sizes_arg =
  Arg.(value & opt (list int) [ 50; 100; 200; 400; 800 ]
       & info [ "sizes" ] ~docv:"N,N,..." ~doc:"Training sizes to sweep.")

let run_sweep seed n_test sizes =
  List.iter (check_at_least "--sizes" 1) sizes;
  check_at_least "--test" 1 n_test;
  let n_train = List.fold_left Stdlib.max 1 sizes in
  guard_data_errors @@ fun () ->
  Printf.printf "generating %d op-amp instances (seed %d)...\n%!"
    (n_train + n_test) seed;
  let train, test = Experiment.generate_opamp ~seed ~n_train ~n_test () in
  let dropped = [| 0; 1; 2; 5; 6; 8; 9; 10 |] in
  List.iter
    (fun n ->
      let subset =
        Device_data.make
          ~specs:(Device_data.specs train)
          ~values:(Array.sub (Device_data.values train) 0 n)
      in
      let counts, _ =
        Compaction.eliminate Experiment.opamp_config ~train:subset ~test ~dropped
      in
      Printf.printf "n=%5d  escape %s  loss %s  guard %s\n" n
        (Report.pct (Metrics.escape_pct counts))
        (Report.pct (Metrics.loss_pct counts))
        (Report.pct (Metrics.guard_pct counts)))
    (List.sort compare sizes)

let sweep_cmd =
  let term = Term.(const run_sweep $ seed $ n_test $ sizes_arg) in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Prediction accuracy vs training-set size (Fig. 6)")
    term

(* ------------------------------- specs ----------------------------- *)

let run_specs () =
  let render title specs =
    let rows =
      Array.to_list
        (Array.map
           (fun s ->
             [
               s.Spec.name;
               s.Spec.unit_label;
               Report.g3 s.Spec.nominal;
               Printf.sprintf "%s..%s" (Report.g3 s.Spec.range.Spec.lower)
                 (Report.g3 s.Spec.range.Spec.upper);
             ])
           specs)
    in
    print_string
      (Report.table ~title ~header:[ "specification"; "unit"; "nominal"; "range" ]
         rows);
    print_newline ()
  in
  render "Op-amp (Table 1)" Experiment.opamp_specs;
  render "MEMS accelerometer (Table 2, per temperature)" Experiment.mems_room_specs

let specs_cmd =
  Cmd.v (Cmd.info "specs" ~doc:"Print the specification tables")
    Term.(const run_specs $ const ())

(* ------------------------------- serve ----------------------------- *)

let flow_file_arg =
  Arg.(required & opt (some string) None
       & info [ "flow" ] ~docv:"FILE"
           ~doc:"Flow saved by $(b,stc opamp --save-flow).")

let input_arg =
  Arg.(required & opt (some string) None
       & info [ "input" ] ~docv:"CSV"
           ~doc:"Device measurement rows; $(b,-) streams them from stdin.")

let batch_arg =
  Arg.(value & opt int 256
       & info [ "batch" ] ~docv:"N" ~doc:"Devices per dispatched batch.")

let domains_arg =
  Arg.(value & opt int 1
       & info [ "domains" ] ~docv:"N"
           ~doc:"Worker domains (including the caller).")

let queue_guard_arg =
  Arg.(value & flag
       & info [ "queue-guard" ]
           ~doc:"Bin guard-band parts Retest instead of escalating them to \
                 the full specification test on the spot.")

let run_serve flow_file input batch domains queue_guard metrics trace =
  guard_data_errors @@ fun () ->
  with_obs ~metrics ~trace @@ fun () ->
  check_at_least "--batch" 1 batch;
  check_at_least "--domains" 1 domains;
  let flow =
    match Flow_io.load ~path:flow_file with
    | Ok flow -> flow
    | Error e -> die_data "cannot load flow %s: %s" flow_file e
  in
  let src = if input = "-" then "stdin" else input in
  let reader =
    match
      if input = "-" then Device_csv.reader_of_channel stdin
      else Device_csv.open_reader ~path:input
    with
    | Ok r -> r
    | Error e -> die_data "cannot read devices from %s: %s" src e
  in
  Fun.protect ~finally:(fun () -> Device_csv.close_reader reader) @@ fun () ->
  let specs = flow.Compaction.specs in
  (* rows are binned by column position, so the header must name the
     flow's specs in the flow's order *)
  let names = Array.map (fun s -> s.Spec.name) specs in
  let header = Device_csv.header reader in
  if header <> names then begin
    let cell a j =
      if j < Array.length a then Printf.sprintf "%S" a.(j) else "(none)"
    in
    let rec first_diff j =
      if cell header j = cell names j then first_diff (j + 1) else j
    in
    let j = first_diff 0 in
    die_data "input %s column %d is %s but the flow's spec %d is %s" src
      (j + 1) (cell header j) (j + 1) (cell names j)
  end;
  Printf.printf "%s: %d kept of %d specs, batch %d, domains %d\n%!" src
    (Array.length flow.Compaction.kept)
    (Array.length specs) batch domains;
  (* the full (adaptive) test: measure every spec — the CSV already
     carries all columns, so full test = judge the complete row *)
  let retest = if queue_guard then None else Some (Floor.full_test flow) in
  Floor.with_engine
    ~config:{ Floor.batch_size = batch; domains }
    flow
    (fun engine ->
      (* pull batch-sized chunks so a floor-scale stream (or an endless
         stdin pipe) never materialises in memory *)
      let rec pump total =
        match Device_csv.next_batch reader ~max:batch with
        | Error e -> die_data "cannot read devices from %s: %s" src e
        | Ok [||] -> total
        | Ok rows ->
          let (_ : Floor.outcome array) = Floor.process ?retest engine rows in
          pump (total + Array.length rows)
      in
      let total = pump 0 in
      Printf.printf "%d devices binned\n" total;
      print_string (Floor.report engine))

let serve_cmd =
  let term =
    Term.(const run_serve $ flow_file_arg $ input_arg $ batch_arg $ domains_arg
          $ queue_guard_arg $ metrics_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Bin a stream of devices with a saved flow on the floor engine")
    term

(* ------------------------------- server ---------------------------- *)

module Net_registry = Stc_net.Registry
module Net_server = Stc_net.Server

let listen_arg =
  Arg.(value & opt int 0
       & info [ "listen" ] ~docv:"PORT"
           ~doc:"TCP port to listen on, in [0, 65535]; 0 (the default) \
                 picks an ephemeral port and prints it.")

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address (IPv4).")

let server_flows_arg =
  Arg.(non_empty & opt_all (pair ~sep:'=' string string) []
       & info [ "flow" ] ~docv:"NAME=FILE"
           ~doc:"Serve the flow file $(i,FILE) (stc-flow-1 or stc-flow-2) \
                 under the route $(i,NAME) (repeatable; each flow gets its \
                 own engine).")

let flush_rows_arg =
  Arg.(value & opt int Net_server.default_config.Net_server.flush_rows
       & info [ "flush-rows" ] ~docv:"N"
           ~doc:"Flush a connection's pipelined BIN rows as one batch once \
                 $(docv) are pending.")

let flush_deadline_arg =
  Arg.(value & opt float Net_server.default_config.Net_server.flush_deadline_s
       & info [ "flush-deadline" ] ~docv:"SECONDS"
           ~doc:"Flush pending rows once the oldest is $(docv) old, so a \
                 trickling client still gets verdicts promptly.")

let max_pending_arg =
  Arg.(value & opt int Net_server.default_config.Net_server.max_pending
       & info [ "max-pending" ] ~docv:"N"
           ~doc:"Bound on a connection's pending-row queue (and on a single \
                 BATCH): reaching it forces a flush before the next read, \
                 so a runaway client is throttled by TCP itself.")

let max_conns_arg =
  Arg.(value & opt int Net_server.default_config.Net_server.max_connections
       & info [ "max-conns" ] ~docv:"N"
           ~doc:"Concurrent client connections; arrivals past the cap are \
                 shed with one $(i,ERR busy) line and a clean close.")

let idle_timeout_arg =
  Arg.(value & opt float Net_server.default_config.Net_server.idle_timeout_s
       & info [ "idle-timeout" ] ~docv:"SECONDS"
           ~doc:"Reap a connection that has sent no bytes for $(docv) \
                 (slow-loris defense); 0, a negative value or inf disables \
                 the reaper.")

let write_timeout_arg =
  Arg.(value & opt float Net_server.default_config.Net_server.write_timeout_s
       & info [ "write-timeout" ] ~docv:"SECONDS"
           ~doc:"Tear down a connection whose peer stops reading replies \
                 once a blocked write has waited $(docv); 0, a negative \
                 value or inf waits forever.")

let drain_deadline_arg =
  Arg.(value & opt float Net_server.default_config.Net_server.drain_deadline_s
       & info [ "drain-deadline" ] ~docv:"SECONDS"
           ~doc:"On SIGTERM/SIGINT or a wire SHUTDOWN the server drains: \
                 it stops accepting, answers every in-flight batch, and \
                 exits — forcing the remaining connections closed after \
                 $(docv).")

let reload_signal_arg =
  Arg.(value & flag
       & info [ "reload-signal" ]
           ~doc:"Re-read every flow's file on SIGHUP and hot-swap the \
                 changed ones atomically (a parse error leaves the old \
                 flow serving; an unchanged fingerprint is a no-op).")

let run_server host listen flows flush_rows flush_deadline max_pending
    max_conns idle_timeout write_timeout drain_deadline queue_guard
    reload_signal batch domains metrics trace =
  guard_data_errors @@ fun () ->
  with_obs ~metrics ~trace @@ fun () ->
  List.iter
    (fun (option, n) -> check_at_least option 1 n)
    [
      ("--batch", batch);
      ("--domains", domains);
      ("--flush-rows", flush_rows);
      ("--max-pending", max_pending);
      ("--max-conns", max_conns);
    ];
  (* written so that NaN fails: the server waits on these in
     [Unix.select], which raises EINVAL on a NaN timeout *)
  if not (flush_deadline > 0.0) then
    die_option "--flush-deadline must be positive (got %g)" flush_deadline;
  if not (drain_deadline > 0.0) then
    die_option "--drain-deadline must be positive (got %g)" drain_deadline;
  if Float.is_nan idle_timeout then
    die_option "--idle-timeout must be a number (got %g)" idle_timeout;
  if Float.is_nan write_timeout then
    die_option "--write-timeout must be a number (got %g)" write_timeout;
  if listen < 0 || listen > 65535 then
    die_option "--listen must be in [0, 65535] (got %d)" listen;
  let registry =
    Net_registry.create ~floor_config:{ Floor.batch_size = batch; domains } ()
  in
  let config =
    {
      Net_server.default_config with
      Net_server.host;
      port = listen;
      flush_rows;
      flush_deadline_s = flush_deadline;
      max_pending;
      max_connections = max_conns;
      idle_timeout_s = idle_timeout;
      write_timeout_s = write_timeout;
      drain_deadline_s = drain_deadline;
      escalate = not queue_guard;
    }
  in
  (* created before any flow loads, so that a bad --host exits 1 first:
     [create] checks the host, the one field left that the checks above
     do not cover *)
  let server =
    match Net_server.create ~config registry with
    | server -> server
    | exception Invalid_argument _ ->
      die_option "--host must be an IPv4 address (got %S)" host
  in
  List.iter
    (fun (name, path) ->
      match Net_registry.load registry ~name ~path with
      | Ok _ -> Printf.printf "flow %s <- %s\n%!" name path
      | Error e -> die_data "%s" e)
    flows;
  (* signal handlers only latch atomics; the real work — reload I/O,
     thread joins — happens on the main thread via wait's on_tick *)
  let stop_requested = Atomic.make false in
  let hup = Atomic.make false in
  let latch signal atom =
    try Sys.set_signal signal (Sys.Signal_handle (fun _ -> Atomic.set atom true))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  latch Sys.sigint stop_requested;
  latch Sys.sigterm stop_requested;
  if reload_signal then latch Sys.sighup hup;
  (try Net_server.start server
   with Unix.Unix_error (e, _, _) ->
     die_option "cannot listen on %s:%d: %s" host listen (Unix.error_message e));
  Printf.printf "listening on %s:%d (%d flows)\n%!" host
    (Net_server.port server) (List.length flows);
  let announced_drain = ref false in
  let on_tick () =
    if Atomic.get stop_requested then begin
      (* graceful exit: stop accepting, answer every in-flight batch,
         then let wait observe the drained (or expired) server and
         stop it — no accepted device is dropped *)
      if not !announced_drain then begin
        announced_drain := true;
        Printf.printf "draining (deadline %gs)...\n%!" drain_deadline
      end;
      Net_server.drain server
    end
    else if Atomic.exchange hup false then
      List.iter
        (fun name ->
          match Net_registry.reload registry ~name with
          | Ok (`Reloaded st) ->
            Printf.printf "reloaded %s -> version %d (%s)\n%!" name
              st.Net_registry.version st.Net_registry.fingerprint
          | Ok (`Unchanged _) -> Printf.printf "%s unchanged\n%!" name
          | Error e -> Printf.eprintf "reload %s failed: %s\n%!" name e)
        (Net_registry.names registry)
  in
  Net_server.wait ~on_tick server;
  Net_server.stop server;
  Net_registry.shutdown registry;
  Printf.printf "server stopped\n"

let server_cmd =
  let term =
    Term.(const run_server $ host_arg $ listen_arg $ server_flows_arg
          $ flush_rows_arg $ flush_deadline_arg $ max_pending_arg
          $ max_conns_arg $ idle_timeout_arg $ write_timeout_arg
          $ drain_deadline_arg $ queue_guard_arg $ reload_signal_arg
          $ batch_arg $ domains_arg $ metrics_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "server"
       ~doc:"Serve flows to concurrent network clients over the stc line \
             protocol, with live METRICS and zero-downtime hot reload")
    term

(* -------------------------------- flow ----------------------------- *)

let flow_file_pos =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"FILE"
           ~doc:"Flow file saved by $(b,stc opamp --save-flow).")

let run_flow_info file =
  guard_data_errors @@ fun () ->
  let flow =
    match Flow_io.load ~path:file with
    | Ok f -> f
    | Error e -> die_data "cannot load flow %s: %s" file e
  in
  let fingerprint =
    match Flow_io.fingerprint flow with
    | Ok fp -> fp
    | Error e -> die_data "cannot fingerprint flow %s: %s" file e
  in
  let specs = flow.Compaction.specs in
  let kept = flow.Compaction.kept in
  let dropped = flow.Compaction.dropped in
  Printf.printf "file           %s\n" file;
  Printf.printf "format         %s\n" (Flow_io.version_of_flow flow);
  Printf.printf "fingerprint    %s\n" fingerprint;
  Printf.printf "specs          %d\n" (Array.length specs);
  Printf.printf "kept           %d\n" (Array.length kept);
  Printf.printf "dropped        %d\n" (Array.length dropped);
  Printf.printf "guard fraction %.17g\n" flow.Compaction.guard_fraction;
  Printf.printf "measured guard %b\n" flow.Compaction.measured_guard;
  Printf.printf "band           %s\n"
    (match flow.Compaction.band with
     | Some _ -> "trained guard-band model pair"
     | None -> "none (identity flow)");
  let name i = specs.(i).Spec.name in
  Array.iter (fun i -> Printf.printf "  keep %s\n" (name i)) kept;
  Array.iter (fun i -> Printf.printf "  drop %s\n" (name i)) dropped

let flow_info_cmd =
  Cmd.v
    (Cmd.info "info"
       ~doc:"Print a saved flow's format version, fingerprint, kept and \
             dropped specifications, and guard-band settings")
    Term.(const run_flow_info $ flow_file_pos)

let flow_cmd =
  Cmd.group
    (Cmd.info "flow" ~doc:"Inspect saved flow files (stc-flow-1 and stc-flow-2)")
    [ flow_info_cmd ]

(* ------------------------------- main ------------------------------ *)

let () =
  let exits =
    Cmd.Exit.info 1
         ~doc:"on a genuine failure: an option out of range, a server \
               that could not run."
    :: Cmd.Exit.info 2
         ~doc:"on a data error: a corrupt flow file, a bad device CSV, an \
               unusable journal."
    :: Cmd.Exit.defaults
  in
  let info =
    Cmd.info "stc" ~version:"1.0.0" ~exits
      ~doc:"Specification test compaction for analog circuits and MEMS"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            opamp_cmd;
            mems_cmd;
            sweep_cmd;
            specs_cmd;
            serve_cmd;
            server_cmd;
            flow_cmd;
          ]))
