(* Quickstart: compaction on a synthetic device whose third
   specification is an exact function of the first two (s2 = s0 + s1),
   mirroring the paper's Fig. 3 illustration.

     dune exec examples/quickstart.exe *)

module Spec = Stc.Spec
module Device_data = Stc.Device_data
module Compaction = Stc.Compaction
module Guard_band = Stc.Guard_band
module Metrics = Stc.Metrics
module Report = Stc.Report
module Floor = Stc_floor.Floor
module Rng = Stc_numerics.Rng

(* 1. Declare the specifications: name, units, nominal, acceptability range. *)
let specs =
  [|
    Spec.make ~name:"s0" ~unit_label:"V" ~nominal:1.0 ~lower:0.5 ~upper:1.5;
    Spec.make ~name:"s1" ~unit_label:"V" ~nominal:1.0 ~lower:0.5 ~upper:1.5;
    Spec.make ~name:"s2" ~unit_label:"V" ~nominal:2.0 ~lower:1.3 ~upper:2.5;
  |]

(* 2. Get measured spec values for a population of devices (here
   synthesised directly; in real use they come from Monte-Carlo
   simulation — see the op-amp and MEMS examples). *)
let population seed n =
  let rng = Rng.create seed in
  let values =
    Array.init n (fun _ ->
        let a = Rng.gaussian rng ~mean:1.0 ~sigma:0.25 in
        let b = Rng.gaussian rng ~mean:1.0 ~sigma:0.25 in
        [| a; b; a +. b |])
  in
  Device_data.make ~specs ~values

let () =
  let train = population 1 1500 in
  let test = population 2 1000 in
  Printf.printf "population yield: train %.1f%%, test %.1f%%\n\n"
    (100.0 *. Device_data.yield_fraction train)
    (100.0 *. Device_data.yield_fraction test);

  (* 3. Run the greedy compaction loop (Fig. 2 of the paper). *)
  (* e_T = 3 %: this population is dense near the pass/fail boundary, so
     the redundant test still costs a little prediction error. The
     sharper RBF (γ = 4) resolves the diagonal acceptance band. *)
  let config =
    {
      Compaction.default_config with
      Compaction.guard_fraction = 0.02;
      tolerance = 0.03;
      learner = Compaction.Epsilon_svr { c = 10.0; epsilon = 0.1; gamma = Some 4.0 };
    }
  in
  (* any one of the three is redundant (s2 = s0 + s1); examine s2 first
     so the expensive test is the one that gets eliminated *)
  let result =
    Compaction.greedy ~order:(Stc.Order.Given [| 2; 0; 1 |]) config ~train ~test
  in
  List.iter
    (fun s ->
      Printf.printf "candidate %-4s prediction error %.2f%% -> %s\n"
        specs.(s.Compaction.spec_index).Spec.name
        (100.0 *. s.Compaction.error)
        (if s.Compaction.accepted then "ELIMINATED" else "kept"))
    result.Compaction.steps;

  (* 4. Evaluate the compacted flow with its guard band. *)
  let flow = result.Compaction.flow in
  let counts = Compaction.evaluate_flow flow test in
  Printf.printf "\ncompacted flow on test data: %s escape, %s loss, %s guard\n"
    (Report.pct (Metrics.escape_pct counts))
    (Report.pct (Metrics.loss_pct counts))
    (Report.pct (Metrics.guard_pct counts));

  (* 5. Deploy: bin the parts on the floor engine (Sec. 3.3), which
     sends guard-band parts to the full specification test. *)
  let stats =
    Floor.with_engine flow (fun engine ->
        let (_ : Floor.outcome array) =
          Floor.process ~retest:(Floor.full_test flow) engine
            (Device_data.values test)
        in
        Floor.stats engine)
  in
  (* a guard part ships only once it passes the full test, so the bad
     parts shipped are exactly the model's escapes from step 4 *)
  Printf.printf
    "production run: shipped %d, scrapped %d, retested %d (escapes shipped: %d)\n"
    stats.Floor.shipped stats.Floor.scrapped stats.Floor.retested
    counts.Metrics.escapes;

  (* 6. Visualise the derived acceptance region over (s0, s1) — the
     corners where s0 + s1 would violate s2 are carved away (Fig. 3). *)
  let samples = ref [] in
  for i = 0 to 69 do
    for j = 0 to 69 do
      let a = 0.3 +. (1.5 *. float_of_int i /. 69.0) in
      let b = 0.3 +. (1.5 *. float_of_int j /. 69.0) in
      if
        Guard_band.equal_verdict
          (Compaction.flow_verdict flow [| a; b; 0.0 |])
          Guard_band.Good
      then samples := (a, b) :: !samples
    done
  done;
  print_endline "\nderived acceptance region over (s0, s1):";
  print_string (Report.ascii_plot ~width:56 ~height:20 (Array.of_list !samples))
