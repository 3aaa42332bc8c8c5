module Spec = Stc.Spec
module Compaction = Stc.Compaction
module Guard_band = Stc.Guard_band
module Kernel = Stc_svm.Kernel
module Svr = Stc_svm.Svr
module Svc = Stc_svm.Svc
module Model_io = Stc_svm.Model_io
module Floor = Stc_floor.Floor
module Flow_io = Stc_floor.Flow_io
module Device_csv = Stc_floor.Device_csv

let errorf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* ----------------------- reference binner ------------------------- *)

(* A from-scratch reimplementation of the flow-verdict semantics with
   everything bound up front as closures: the perturbed ranges are
   computed once, the band sides become two plain [float array -> int]
   functions, and rows are binned strictly in order with no batching.
   Shares only Spec's primitive float operations with the production
   path, so the arithmetic is bit-identical while the control flow is
   independent. *)
let reference_outcomes ?retest (flow : Compaction.flow) rows =
  let delta =
    if flow.Compaction.measured_guard then flow.Compaction.guard_fraction
    else 0.0
  in
  let kept = flow.Compaction.kept in
  let kept_specs = Array.map (fun j -> flow.Compaction.specs.(j)) kept in
  let loose_specs =
    if delta = 0.0 then kept_specs
    else Array.map (fun s -> Spec.perturb s ~fraction:delta) kept_specs
  in
  let tight_specs =
    if delta = 0.0 then kept_specs
    else Array.map (fun s -> Spec.perturb s ~fraction:(-.delta)) kept_specs
  in
  let model_verdict =
    match flow.Compaction.band with
    | None -> fun _ -> Guard_band.Good
    | Some band ->
      let tight = Guard_band.predict (Guard_band.tight_model band) in
      let loose = Guard_band.predict (Guard_band.loose_model band) in
      fun features ->
        (match (tight features, loose features) with
         | 1, 1 -> Guard_band.Good
         | -1, -1 -> Guard_band.Bad
         | 1, -1 | -1, 1 -> Guard_band.Guard
         | _ -> invalid_arg "Oracle: classifier returned non-±1")
  in
  let bin_one row =
    (* measured (kept-spec) three-way verdict *)
    let measured = ref Guard_band.Good in
    Array.iteri
      (fun p j ->
        let v = row.(j) in
        if not (Spec.passes loose_specs.(p) v) then measured := Guard_band.Bad
        else if
          (not (Spec.passes tight_specs.(p) v))
          && !measured = Guard_band.Good
        then measured := Guard_band.Guard)
      kept;
    let verdict =
      match !measured with
      | Guard_band.Bad -> Guard_band.Bad
      | (Guard_band.Good | Guard_band.Guard) as m ->
        let features =
          Array.mapi (fun p j -> Spec.normalize kept_specs.(p) row.(j)) kept
        in
        (match (m, model_verdict features) with
         | Guard_band.Good, mv -> mv
         | Guard_band.Guard, Guard_band.Bad -> Guard_band.Bad
         | Guard_band.Guard, (Guard_band.Good | Guard_band.Guard) ->
           Guard_band.Guard
         | Guard_band.Bad, _ -> assert false)
    in
    let bin =
      match verdict with
      | Guard_band.Good -> Floor.Ship
      | Guard_band.Bad -> Floor.Scrap
      | Guard_band.Guard ->
        (match retest with
         | None -> Floor.Retest
         | Some full_test -> if full_test row then Floor.Ship else Floor.Scrap)
    in
    { Floor.bin; verdict }
  in
  Array.map bin_one rows

let bin_name = function
  | Floor.Ship -> "ship"
  | Floor.Scrap -> "scrap"
  | Floor.Retest -> "retest"

let floor_matches ?retest ~batch_sizes ~domain_counts flow rows =
  let expected = reference_outcomes ?retest flow rows in
  let check_config batch_size domains =
    Floor.with_engine ~config:{ Floor.batch_size; domains } flow (fun engine ->
        let got = Floor.process ?retest engine rows in
        let mismatch = ref (Ok ()) in
        Array.iteri
          (fun i (o : Floor.outcome) ->
            if !mismatch = Ok () then begin
              let e = expected.(i) in
              if
                (not (Guard_band.equal_verdict o.Floor.verdict e.Floor.verdict))
                || o.Floor.bin <> e.Floor.bin
              then
                mismatch :=
                  errorf
                    "batch %d, domains %d, row %d: engine %s/%s but reference \
                     %s/%s"
                    batch_size domains i
                    (Guard_band.verdict_to_string o.Floor.verdict)
                    (bin_name o.Floor.bin)
                    (Guard_band.verdict_to_string e.Floor.verdict)
                    (bin_name e.Floor.bin)
            end)
          got;
        match !mismatch with
        | Error _ as e -> e
        | Ok () ->
          let s = Floor.stats engine in
          let n = Array.length rows in
          if s.Floor.devices <> n then
            errorf "batch %d, domains %d: %d devices counted, %d submitted"
              batch_size domains s.Floor.devices n
          else begin
            (* with a retest callback a guard part is counted both as
               retested and as shipped/scrapped; without one the three
               bins partition the stream *)
            let binned = s.Floor.shipped + s.Floor.scrapped in
            let consistent =
              match retest with
              | None -> binned + s.Floor.retested = n
              | Some _ -> binned = n
            in
            if consistent then Ok ()
            else
              errorf
                "batch %d, domains %d: counters do not partition (%d + %d + %d \
                 vs %d)"
                batch_size domains s.Floor.shipped s.Floor.scrapped
                s.Floor.retested n
          end)
  in
  List.fold_left
    (fun acc batch_size ->
      List.fold_left
        (fun acc domains ->
          match acc with
          | Error _ as e -> e
          | Ok () -> check_config batch_size domains)
        acc domain_counts)
    (Ok ()) batch_sizes

(* --------------------- reference SVM decision --------------------- *)

let dot_ref x y =
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let sqdist_ref x y =
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let d = x.(i) -. y.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let kernel_ref k x y =
  match k with
  | Kernel.Linear -> dot_ref x y
  | Kernel.Rbf { gamma } -> exp (-.gamma *. sqdist_ref x y)
  | Kernel.Polynomial { gamma; coef0; degree } ->
    let base = (gamma *. dot_ref x y) +. coef0 in
    let acc = ref 1.0 in
    for _ = 1 to degree do
      acc := !acc *. base
    done;
    !acc
  | Kernel.Sigmoid { gamma; coef0 } -> tanh ((gamma *. dot_ref x y) +. coef0)

(* Differential oracle for the flat-storage kernel path: every kernel
   value computed over contiguous [Flat] storage must be bit-for-bit
   the value the boxed [Kernel.eval] path computes — compared on the
   IEEE bit pattern, not with a tolerance. *)
let flat_kernel_agrees kernels rows =
  let bits = Int64.bits_of_float in
  let fx = Stc_svm.Flat.of_rows rows in
  let n = Array.length rows in
  let mismatch what k i j boxed flat =
    errorf "flat kernel %s: %s rows (%d,%d): boxed %.17g flat %.17g" what
      (Format.asprintf "%a" Kernel.pp k)
      i j boxed flat
  in
  List.fold_left
    (fun acc k ->
      match acc with
      | Error _ as e -> e
      | Ok () ->
        let pairwise = ref (Ok ()) in
        (try
           for i = 0 to n - 1 do
             for j = 0 to n - 1 do
               let boxed = Kernel.eval k rows.(i) rows.(j) in
               let flat = Kernel.eval_rows k fx i j in
               if bits boxed <> bits flat then begin
                 pairwise := mismatch "eval_rows" k i j boxed flat;
                 raise Exit
               end;
               let vec = Kernel.eval_row_vec k fx i rows.(j) in
               if bits boxed <> bits vec then begin
                 pairwise := mismatch "eval_row_vec" k i j boxed vec;
                 raise Exit
               end
             done
           done
         with Exit -> ());
        !pairwise)
    (Ok ()) kernels

let raw_decision ~kernel ~sv ~coef ~b x =
  let acc = ref b in
  Array.iteri (fun i s -> acc := !acc +. (coef.(i) *. kernel_ref kernel s x)) sv;
  !acc

let svc_decision_ref m x =
  let r = Svc.to_raw m in
  raw_decision ~kernel:r.Svc.raw_kernel ~sv:r.Svc.raw_sv ~coef:r.Svc.raw_coef
    ~b:r.Svc.raw_b x

let svr_predict_ref m x =
  let r = Svr.to_raw m in
  raw_decision ~kernel:r.Svr.raw_kernel ~sv:r.Svr.raw_sv ~coef:r.Svr.raw_coef
    ~b:r.Svr.raw_b x

let agree ~what ~tol ~fast ~ref_ ~fast_sign ~ref_sign =
  let scale = 1.0 +. Float.abs fast +. Float.abs ref_ in
  if Float.abs (fast -. ref_) > tol *. scale then
    errorf "%s decision %.17g but reference %.17g" what fast ref_
  else if Float.abs ref_ > tol *. scale && fast_sign <> ref_sign then
    errorf "%s classifies %+d but reference sign is %+d (f = %.17g)" what
      fast_sign ref_sign ref_
  else Ok ()

let svc_agrees ?(tol = 1e-9) m x =
  let ref_ = svc_decision_ref m x in
  agree ~what:"svc" ~tol ~fast:(Svc.decision m x) ~ref_
    ~fast_sign:(Svc.predict m x)
    ~ref_sign:(if ref_ >= 0.0 then 1 else -1)

let svr_agrees ?(tol = 1e-9) m x =
  let ref_ = svr_predict_ref m x in
  agree ~what:"svr" ~tol ~fast:(Svr.predict m x) ~ref_
    ~fast_sign:(Svr.classify m x)
    ~ref_sign:(if ref_ >= 0.0 then 1 else -1)

let dual_feasible ~what ~c coef =
  let slack = 1e-6 *. (1.0 +. c) in
  let bad =
    Array.to_seq coef
    |> Seq.mapi (fun i a -> (i, a))
    |> Seq.filter (fun (_, a) -> Float.abs a > c +. slack)
    |> List.of_seq
  in
  match bad with
  | (i, a) :: _ ->
    errorf "%s support vector %d: |coef| = %.17g exceeds C = %g" what i
      (Float.abs a) c
  | [] ->
    let sum = Array.fold_left ( +. ) 0.0 coef in
    let scale = Array.fold_left (fun s a -> s +. Float.abs a) 1.0 coef in
    if Float.abs sum > 1e-6 *. scale then
      errorf "%s equality constraint violated: sum coef = %.17g" what sum
    else Ok ()

let svc_dual_feasible ~c m = dual_feasible ~what:"svc" ~c (Svc.dual_coefs m)

let svr_dual_feasible ~c m =
  dual_feasible ~what:"svr" ~c (Svr.to_raw m).Svr.raw_coef

(* -------------------------- round trips --------------------------- *)

let flow_roundtrips flow =
  match Flow_io.to_string flow with
  | Error e -> errorf "to_string failed: %s" e
  | Ok text ->
    (match Flow_io.of_string text with
     | Error e -> errorf "printed flow does not parse: %s" e
     | Ok reloaded ->
       (match Flow_io.to_string reloaded with
        | Error e -> errorf "reloaded flow does not print: %s" e
        | Ok text' ->
          if String.equal text text' then Ok ()
          else errorf "print ∘ parse not canonical:\n--- first\n%s--- second\n%s" text text'))

let flow_verdicts_survive flow rows =
  match Flow_io.to_string flow with
  | Error e -> errorf "to_string failed: %s" e
  | Ok text ->
    (match Flow_io.of_string text with
     | Error e -> errorf "printed flow does not parse: %s" e
     | Ok reloaded ->
       let mismatch = ref (Ok ()) in
       Array.iteri
         (fun i row ->
           if !mismatch = Ok () then begin
             let a = Compaction.flow_verdict flow row in
             let b = Compaction.flow_verdict reloaded row in
             if not (Guard_band.equal_verdict a b) then
               mismatch :=
                 errorf "row %d: verdict %s before save, %s after reload" i
                   (Guard_band.verdict_to_string a)
                   (Guard_band.verdict_to_string b)
           end)
         rows;
       !mismatch)

let model_roundtrips ~what ~to_string ~of_string m =
  let text = to_string m in
  match of_string text with
  | Error e -> errorf "printed %s model does not parse: %s" what e
  | Ok m' ->
    let text' = to_string m' in
    if String.equal text text' then Ok ()
    else errorf "%s print ∘ parse not canonical:\n%s\nvs\n%s" what text text'

let svr_roundtrips m =
  model_roundtrips ~what:"svr" ~to_string:Model_io.svr_to_string
    ~of_string:Model_io.svr_of_string m

let svc_roundtrips m =
  model_roundtrips ~what:"svc" ~to_string:Model_io.svc_to_string
    ~of_string:Model_io.svc_of_string m

let csv_roundtrips ~specs ~rows =
  let path = Filename.temp_file "stc_qa" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match Device_csv.write ~path ~specs ~rows with
      | exception Invalid_argument e -> errorf "write rejected rows: %s" e
      | () ->
        (match Device_csv.read ~path with
         | Error e -> errorf "written CSV does not read: %s" e
         | Ok (names, rows') ->
           if Array.length names <> Array.length specs then
             errorf "header has %d names for %d specs" (Array.length names)
               (Array.length specs)
           else if
             not
               (Array.for_all2
                  (fun n (s : Spec.t) -> String.equal n s.Spec.name)
                  names specs)
           then errorf "header names differ from spec names"
           else if Array.length rows' <> Array.length rows then
             errorf "%d rows read back for %d written" (Array.length rows')
               (Array.length rows)
           else begin
             let mismatch = ref (Ok ()) in
             Array.iteri
               (fun i row ->
                 Array.iteri
                   (fun j v ->
                     if !mismatch = Ok () && not (Float.equal v rows'.(i).(j))
                     then
                       mismatch :=
                         errorf "cell (%d, %d): wrote %.17g, read %.17g" i j v
                           rows'.(i).(j))
                   row)
               rows;
             !mismatch
           end))

(* ------------------------- learner oracles ------------------------ *)

module Mlp = Stc_learn.Mlp
module Mi = Stc_learn.Mi

(* Independent forward pass recomputed from the raw weights with plain
   iterators — shares only tanh with the production path. *)
let mlp_forward_ref m x =
  let r = Mlp.to_raw m in
  let acc = ref r.Mlp.raw_out_b in
  Array.iteri
    (fun i wi ->
      let s = ref r.Mlp.raw_hidden_b.(i) in
      Array.iteri (fun j w -> s := !s +. (w *. x.(j))) wi;
      acc := !acc +. (r.Mlp.raw_out_w.(i) *. tanh !s))
    r.Mlp.raw_hidden_w;
  !acc

let mlp_agrees ?(tol = 1e-9) m x =
  let ref_ = mlp_forward_ref m x in
  agree ~what:"mlp" ~tol ~fast:(Mlp.predict m x) ~ref_
    ~fast_sign:(Mlp.classify m x)
    ~ref_sign:(if ref_ >= 0.0 then 1 else -1)

let mlp_roundtrips m =
  model_roundtrips ~what:"mlp" ~to_string:Mlp.to_string
    ~of_string:Mlp.of_string m

(* Reference MI: one full scan of the data per (bin, label) cell —
   O(bins · n) scans instead of one counting pass — with the bin rule
   and the p·log accumulation recomputed inline in the same order, so
   the production score must match bit-for-bit. *)
let mi_matches_ref ?(bins = Mi.default_bins) ~labels values =
  let n = Array.length values in
  if n = 0 || Array.length labels <> n then
    errorf "mi_matches_ref: bad input shape"
  else begin
    let lo = Array.fold_left min values.(0) values in
    let hi = Array.fold_left max values.(0) values in
    let bin_of v =
      if hi <= lo then 0
      else begin
        let b =
          int_of_float (float_of_int bins *. ((v -. lo) /. (hi -. lo)))
        in
        if b < 0 then 0 else if b >= bins then bins - 1 else b
      end
    in
    let count pred =
      let c = ref 0 in
      for i = 0 to n - 1 do
        if pred i then incr c
      done;
      !c
    in
    let fn = float_of_int n in
    let expected = ref 0.0 in
    for b = 0 to bins - 1 do
      for l = 0 to 1 do
        let in_cell i =
          bin_of values.(i) = b && (if labels.(i) > 0 then 1 else 0) = l
        in
        let c = count in_cell in
        if c > 0 then begin
          let cb = count (fun i -> bin_of values.(i) = b) in
          let cl = count (fun i -> (if labels.(i) > 0 then 1 else 0) = l) in
          let p_bl = float_of_int c /. fn in
          let p_b = float_of_int cb /. fn in
          let p_l = float_of_int cl /. fn in
          expected := !expected +. (p_bl *. log (p_bl /. (p_b *. p_l)))
        end
      done
    done;
    let expected = if !expected < 0.0 then 0.0 else !expected in
    let got = Mi.score ~bins ~labels values in
    if Int64.bits_of_float got <> Int64.bits_of_float expected then
      errorf "mi score %.17g but reference %.17g" got expected
    else Ok ()
  end

(* MI is computed from integer counts, so applying one permutation to
   values and labels together may not change a single bit. *)
let mi_permutation_invariant ?bins ~permutation ~labels values =
  let n = Array.length values in
  if Array.length permutation <> n || Array.length labels <> n then
    errorf "mi_permutation_invariant: bad input shape"
  else begin
    let pv = Array.map (fun i -> values.(i)) permutation in
    let pl = Array.map (fun i -> labels.(i)) permutation in
    let a = Mi.score ?bins ~labels values in
    let b = Mi.score ?bins ~labels:pl pv in
    if Int64.bits_of_float a <> Int64.bits_of_float b then
      errorf "mi score %.17g changed to %.17g under permutation" a b
    else Ok ()
  end

(* ------------------------ enrichment oracles ---------------------- *)

module Montecarlo = Stc_process.Montecarlo
module Enrich = Stc_process.Enrich

let same_float_matrix ~what a b =
  if Array.length a <> Array.length b then
    errorf "%s: %d rows vs %d" what (Array.length a) (Array.length b)
  else begin
    let bad = ref (Ok ()) in
    Array.iteri
      (fun i row ->
        if !bad = Ok () then begin
          if Array.length row <> Array.length b.(i) then
            bad := errorf "%s: row %d width differs" what i
          else
            Array.iteri
              (fun j v ->
                (* IEEE bit pattern, no tolerance: the determinism
                   contract is bit-identity *)
                if
                  !bad = Ok ()
                  && Int64.bits_of_float v <> Int64.bits_of_float b.(i).(j)
                then
                  bad :=
                    errorf "%s: (%d, %d) %.17g vs %.17g" what i j v b.(i).(j))
              row
        end)
      a;
    !bad
  end

let same_dataset ~what (a : Montecarlo.dataset) (b : Montecarlo.dataset) =
  let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
  let* () = same_float_matrix ~what:(what ^ " inputs") a.inputs b.inputs in
  let* () = same_float_matrix ~what:(what ^ " specs") a.specs b.specs in
  let* () =
    same_float_matrix ~what:(what ^ " weights") [| a.weights |] [| b.weights |]
  in
  if a.discarded <> b.discarded then
    errorf "%s: discarded %d vs %d" what a.discarded b.discarded
  else Ok ()

let enrichment_deterministic ?(domain_counts = [ 1; 2; 4 ]) ~seed ~pilot ~n
    device ~limits =
  match domain_counts with
  | [] -> Ok ()
  | d0 :: rest ->
    let gen d = Enrich.generate ~domains:d ~seed ~pilot device ~limits ~n in
    let reference, ref_stats = gen d0 in
    let rec check = function
      | [] -> Ok ()
      | d :: rest -> (
        let got, stats = gen d in
        let what = Printf.sprintf "domains %d vs %d" d d0 in
        match same_dataset ~what reference got with
        | Error _ as e -> e
        | Ok () ->
          if stats <> ref_stats then errorf "%s: stats differ" what
          else check rest)
    in
    check rest

let passes_limits limits values =
  let ok = ref true in
  Array.iteri
    (fun j v ->
      let lo, hi = limits.(j) in
      if v < lo || v > hi then ok := false)
    values;
  !ok

let weighted_yield ~limits (d : Montecarlo.dataset) =
  let good = ref 0.0 and total = ref 0.0 in
  Array.iteri
    (fun i values ->
      let w = d.weights.(i) in
      total := !total +. w;
      if passes_limits limits values then good := !good +. w)
    d.specs;
  if !total = 0.0 then 0.0 else !good /. !total

(* Kish effective sample size: the variance of a self-normalised
   weighted mean of n draws matches an unweighted mean of
   (Σw)²/Σw² draws. *)
let effective_sample_size weights =
  let s = ref 0.0 and s2 = ref 0.0 in
  Array.iter
    (fun w ->
      s := !s +. w;
      s2 := !s2 +. (w *. w))
    weights;
  if !s2 = 0.0 then 0.0 else !s *. !s /. !s2

let enrichment_unbiased ?(tolerance_sigmas = 5.0) ~seed ~pilot ~n device
    ~limits =
  let enriched, _stats = Enrich.generate ~seed ~pilot device ~limits ~n in
  (* an independent uniform reference population of the same size *)
  let uniform =
    Montecarlo.generate_parallel ~seed:(seed + 0x2545F491) device ~n
  in
  let y_w = weighted_yield ~limits enriched in
  let y_u = weighted_yield ~limits uniform in
  let n_eff = Stdlib.max 1.0 (effective_sample_size enriched.weights) in
  let se p m = sqrt (Stdlib.max 1e-12 (p *. (1.0 -. p) /. m)) in
  let tol =
    (tolerance_sigmas *. (se y_u (float_of_int n) +. se y_w n_eff)) +. 0.01
  in
  let bad_weight = ref None in
  Array.iteri
    (fun i w ->
      if !bad_weight = None && (not (Float.is_finite w) || w <= 0.0) then
        bad_weight := Some (i, w))
    enriched.weights;
  match !bad_weight with
  | Some (i, w) -> errorf "weight %d is %.17g (not finite positive)" i w
  | None ->
    if Float.abs (y_w -. y_u) > tol then
      errorf
        "weighted yield %.4f vs uniform %.4f differ by %.4f > tolerance %.4f \
         (n_eff %.1f)"
        y_w y_u
        (Float.abs (y_w -. y_u))
        tol n_eff
    else Ok ()

(* -------------------- MLP training determinism -------------------- *)

let mlp_deterministic ?(domain_counts = [ 1; 2; 4 ]) ?config ~seed ~n device
    ~limits =
  let train_once domains =
    let d = Montecarlo.generate_parallel ~domains ~seed device ~n in
    let x = d.Montecarlo.specs in
    let y =
      Array.map
        (fun row -> if passes_limits limits row then 1.0 else -1.0)
        d.Montecarlo.specs
    in
    Mlp.to_string (Mlp.train ?config ~x ~y ())
  in
  match domain_counts with
  | [] -> Ok ()
  | d0 :: rest ->
    let reference = train_once d0 in
    if train_once d0 <> reference then
      errorf "two identical training runs produced different models"
    else begin
      let rec check = function
        | [] -> Ok ()
        | d :: rest ->
          if train_once d <> reference then
            errorf "training on %d domains differs from %d domains" d d0
          else check rest
      in
      check rest
    end

(* ------------------------- promotion gate ------------------------- *)

type promotion = {
  baseline : string;
  candidate : string;
  baseline_dropped : int;
  candidate_dropped : int;
  baseline_escape_pct : float;
  candidate_escape_pct : float;
  baseline_loss_pct : float;
  candidate_loss_pct : float;
}

let learner_promotes ?(slack_pct = 0.0) ?order ~candidate config ~train ~test =
  let run learner =
    let result =
      Compaction.greedy ?order
        { config with Compaction.learner }
        ~train ~test
    in
    let flow = result.Compaction.flow in
    (Array.length flow.Compaction.dropped, Compaction.evaluate_flow flow test)
  in
  let baseline_dropped, base = run config.Compaction.learner in
  let candidate_dropped, cand = run candidate in
  let p =
    {
      baseline = Stc.Learner.name config.Compaction.learner;
      candidate = Stc.Learner.name candidate;
      baseline_dropped;
      candidate_dropped;
      baseline_escape_pct = Stc.Metrics.escape_pct base;
      candidate_escape_pct = Stc.Metrics.escape_pct cand;
      baseline_loss_pct = Stc.Metrics.loss_pct base;
      candidate_loss_pct = Stc.Metrics.loss_pct cand;
    }
  in
  if baseline_dropped > 0 && candidate_dropped = 0 then
    errorf
      "%s compacts nothing where %s drops %d specs — a learner that never \
       accepts a candidate trivially scores zero escape"
      p.candidate p.baseline baseline_dropped
  else if p.candidate_escape_pct > p.baseline_escape_pct +. slack_pct then
    errorf "%s escape %.3f%% exceeds %s escape %.3f%% (+%.3f%% slack)"
      p.candidate p.candidate_escape_pct p.baseline p.baseline_escape_pct
      slack_pct
  else if p.candidate_loss_pct > p.baseline_loss_pct +. slack_pct then
    errorf "%s yield loss %.3f%% exceeds %s yield loss %.3f%% (+%.3f%% slack)"
      p.candidate p.candidate_loss_pct p.baseline p.baseline_loss_pct slack_pct
  else Ok p
