module Spec = Stc.Spec
module Compaction = Stc.Compaction
module Guard_band = Stc.Guard_band
module Svr = Stc_svm.Svr
module Svc = Stc_svm.Svc
module Flat = Stc_svm.Flat
module Svm = Stc_svm.Model
module Mlp = Stc_learn.Mlp
module G = QCheck.Gen

let ( let* ) = G.( >>= )

let state ~seed = Random.State.make [| seed; 0x5743 |]
let run ~seed g = g (state ~seed)

(* ------------------------- specs and rows ------------------------- *)

(* Spaces and '%' exercise Flow_io's field encoding; commas and
   newlines are excluded because Device_csv does not escape them. *)
let field_char =
  G.frequency
    [
      (8, G.char_range 'a' 'z');
      (2, G.char_range 'A' 'Z');
      (2, G.char_range '0' '9');
      (2, G.return ' ');
      (1, G.return '%');
      (1, G.return '/');
      (1, G.return '-');
    ]

let name = G.string_size ~gen:field_char (G.int_range 1 12)
let unit_label = G.string_size ~gen:field_char (G.int_range 0 6)

(* Width >= 1 and |bounds| <= ~25 guarantee that a <= 1 % guard
   perturbation moves each boundary by < 0.5, so tight ranges can never
   collapse (Spec.perturb would raise inside flow_verdict otherwise). *)
let spec =
  let* name = name in
  let* unit_label = unit_label in
  let* center = G.float_range (-20.0) 20.0 in
  let* width = G.float_range 1.0 8.0 in
  let* nominal = G.float_range (center -. (0.25 *. width)) (center +. (0.25 *. width)) in
  G.return
    (Spec.make ~name ~unit_label ~nominal ~lower:(center -. (0.5 *. width))
       ~upper:(center +. (0.5 *. width)))

let specs ?(min_specs = 1) ?(max_specs = 6) () =
  G.array_size (G.int_range min_specs max_specs) spec

let row specs =
  let cell (s : Spec.t) =
    let w = Spec.width s.Spec.range in
    G.float_range (s.Spec.range.Spec.lower -. w) (s.Spec.range.Spec.upper +. w)
  in
  fun st -> Array.map (fun s -> cell s st) specs

let rows specs ~n = G.array_size (G.return n) (row specs)

(* ------------------------ enrichment devices ---------------------- *)

(* A synthetic analytic device for the enrichment oracles: each spec is
   a linear function of the varied parameters, so the boundary-biased
   sampler's linear surrogate is exact and the uniform-sampling yield
   has a known spread. Limits are placed from the propagated spread so
   the yield lands away from 0 %/100 % (a boundary exists to enrich). *)
let enrich_device =
  let* n_params = G.int_range 2 5 in
  let* n_specs = G.int_range 1 4 in
  let* nominals = G.array_size (G.return n_params) (G.float_range 1.0 10.0) in
  let* coeffs =
    G.array_size (G.return n_specs)
      (G.array_size (G.return n_params)
         (let* mag = G.float_range 0.3 2.0 in
          let* sign = G.bool in
          G.return (if sign then mag else -.mag)))
  in
  let* intercepts = G.array_size (G.return n_specs) (G.float_range (-5.0) 5.0) in
  let* widths =
    G.array_size (G.return n_specs)
      (G.pair (G.float_range 0.8 2.5) (G.float_range 0.8 2.5))
  in
  let* one_sided = G.array_size (G.return n_specs) (G.int_range 0 5) in
  let params =
    Array.mapi
      (fun i v ->
        Stc_process.Variation.uniform_pct (Printf.sprintf "p%d" i) v ~pct:0.10)
      nominals
  in
  let predict k x =
    let acc = ref intercepts.(k) in
    Array.iteri (fun j c -> acc := !acc +. (c *. x.(j))) coeffs.(k);
    !acc
  in
  (* uniform on ±10 % of nominal v has sd 0.2·v/√12 *)
  let sigma k =
    sqrt
      (Array.fold_left ( +. ) 0.0
         (Array.mapi
            (fun j c ->
              let s = 0.2 *. nominals.(j) /. sqrt 12.0 in
              c *. s *. (c *. s))
            coeffs.(k)))
  in
  let limits =
    Array.init n_specs (fun k ->
        let mu = predict k nominals and s = sigma k in
        let lo_w, hi_w = widths.(k) in
        (* occasionally one-sided: the sampler must cope with an
           unbounded side contributing an infinite margin *)
        match one_sided.(k) with
        | 0 -> (neg_infinity, mu +. (hi_w *. s))
        | 1 -> (mu -. (lo_w *. s), infinity)
        | _ -> (mu -. (lo_w *. s), mu +. (hi_w *. s)))
  in
  let device =
    {
      Stc_process.Montecarlo.device_name = "qa linear device";
      params;
      spec_count = n_specs;
      simulate = (fun x -> Some (Array.init n_specs (fun k -> predict k x)));
    }
  in
  G.return (device, limits)

(* ----------------------------- models ----------------------------- *)

(* Feature vectors are normalised kept-spec values, mostly in [-1, 2]
   (in-range devices land in [0, 1]); support vectors live there too. *)
let sv_coord = G.float_range (-1.0) 2.0

let svm ~dim =
  let* gamma = G.float_range 0.05 4.0 in
  let* nsv = G.int_range 1 6 in
  let* sv = G.array_size (G.return nsv) (G.array_size (G.return dim) sv_coord) in
  let* coef =
    G.array_size (G.return nsv)
      (let* mag = G.float_range 0.05 3.0 in
       let* sign = G.bool in
       G.return (if sign then mag else -.mag))
  in
  let* b = G.float_range (-1.5) 1.5 in
  G.return { Svm.gamma; sv = Flat.of_rows sv; coef; b }

(* Two separated blobs with ~10 % label noise, so the SMO solver sees a
   realistic soft-margin problem. The first two points are clean, one
   per class — the solvers reject single-class data. *)
let two_class_points ~dim ~n st =
  let point label =
    let c = if label > 0 then 0.75 else 0.25 in
    Array.init dim (fun _ -> c +. G.float_range (-0.2) 0.2 st)
  in
  let x = Array.make n [||] and y = Array.make n 0 in
  for i = 0 to n - 1 do
    let base = if i mod 2 = 0 then 1 else -1 in
    x.(i) <- point base;
    y.(i) <-
      (if i > 1 && G.float_range 0.0 1.0 st < 0.1 then -base else base)
  done;
  (x, y)

let trained_svc ~dim ~n =
  let* c = G.float_range 0.5 10.0 in
  let* x, y = two_class_points ~dim ~n in
  let* gamma = G.float_range 0.2 2.0 in
  G.return (c, Svc.train ~c ~gamma ~x ~y ())

let trained_svr ~dim ~n =
  let* c = G.float_range 0.5 10.0 in
  let* x, y = two_class_points ~dim ~n in
  let* gamma = G.float_range 0.2 2.0 in
  let yf = Array.map float_of_int y in
  G.return (c, Svr.train ~c ~epsilon:0.1 ~gamma ~x ~y:yf ())

(* Synthesised raw weights rather than a training run: cheaper, and
   covers weight patterns no SGD trajectory would reach. *)
let mlp ~dim =
  let* hidden = G.int_range 1 4 in
  let row = G.array_size (G.return dim) (G.float_range (-1.5) 1.5) in
  let* raw_hidden_w = G.array_size (G.return hidden) row in
  let* raw_hidden_b =
    G.array_size (G.return hidden) (G.float_range (-0.5) 0.5)
  in
  let* raw_out_w = G.array_size (G.return hidden) (G.float_range (-1.5) 1.5) in
  let* raw_out_b = G.float_range (-0.5) 0.5 in
  G.return
    (Mlp.of_raw { Mlp.raw_hidden_w; raw_hidden_b; raw_out_w; raw_out_b })

let model ~dim =
  G.frequency
    [
      (1, G.map (fun pos -> Guard_band.constant (if pos then 1 else -1)) G.bool);
      (3, G.map (fun m -> Guard_band.Svr m) (svm ~dim));
      (3, G.map (fun m -> Guard_band.Svc m) (svm ~dim));
      (2, G.map (fun m -> Guard_band.Mlp m) (mlp ~dim));
    ]

let band ~dim =
  let* single = G.frequency [ (1, G.return true); (3, G.return false) ] in
  if single then G.map Guard_band.single_model (model ~dim)
  else
    let* tight = model ~dim in
    let* loose = model ~dim in
    G.return (Guard_band.of_models ~tight ~loose)

(* ---------------------------- journals ---------------------------- *)

let fingerprint =
  let hex_char =
    G.frequency [ (10, G.char_range '0' '9'); (6, G.char_range 'a' 'f') ]
  in
  G.string_size ~gen:hex_char (G.return 16)

let journal_entry =
  let* spec_index = G.int_range 0 19 in
  let* accepted = G.bool in
  let* error = G.float_range 0.0 0.5 in
  G.return { Stc.Journal.spec_index; accepted; error }

let journal =
  let* fingerprint = fingerprint in
  let* n = G.int_range 0 8 in
  let* entries = G.array_size (G.return n) journal_entry in
  let* complete = G.bool in
  G.return { Stc.Journal.fingerprint; entries; complete }

(* ------------------------------ flows ----------------------------- *)

let subset ~n =
  (* each index dropped with probability 1/2 — covers empty and total *)
  let* mask = G.array_size (G.return n) G.bool in
  G.return
    (Array.of_list
       (List.filteri (fun i _ -> mask.(i)) (List.init n (fun i -> i))))

let flow =
  let* sp = specs () in
  let n = Array.length sp in
  let* dropped = subset ~n in
  let kept =
    Array.of_list
      (List.filter
         (fun i -> not (Array.mem i dropped))
         (List.init n (fun i -> i)))
  in
  let* guard_fraction = G.frequency [ (1, G.return 0.0); (3, G.float_range 0.001 0.01) ] in
  let* measured_guard = G.bool in
  let* band =
    if Array.length dropped = 0 then G.return None
    else G.map Option.some (band ~dim:(Array.length kept))
  in
  G.return
    {
      Compaction.specs = sp;
      kept;
      dropped;
      band;
      guard_fraction = (if band = None then 0.0 else guard_fraction);
      measured_guard;
    }

let flow_with_rows ~rows_per_flow =
  let* f = flow in
  let* r = rows f.Compaction.specs ~n:rows_per_flow in
  G.return (f, r)

(* --------------------- qcheck arbitraries ------------------------- *)

let print_flow f =
  match Stc_floor.Flow_io.to_string f with
  | Ok text -> text
  | Error e -> Printf.sprintf "<unserialisable flow: %s>" e

let print_rows rows =
  String.concat "\n"
    (Array.to_list
       (Array.map
          (fun row ->
            String.concat " "
              (Array.to_list (Array.map (Printf.sprintf "%.17g") row)))
          rows))

(* Shrink a band model towards Constant 1, via ever fewer support
   vectors: mismatch reports stay small enough to read. *)
let shrink_svm (m : Svm.t) wrap yield =
  yield (Guard_band.Constant 1);
  let half = Flat.n_rows m.Svm.sv / 2 in
  if half > 0 then
    yield
      (wrap
         {
           m with
           Svm.sv = Flat.of_rows (Array.init half (Flat.row m.Svm.sv));
           coef = Array.sub m.Svm.coef 0 half;
         })

let shrink_model m yield =
  match m with
  | Guard_band.Constant 1 -> ()
  | Guard_band.Constant _ -> yield (Guard_band.Constant 1)
  | Guard_band.Opaque _ -> ()
  | Guard_band.Svr m -> shrink_svm m (fun m -> Guard_band.Svr m) yield
  | Guard_band.Svc m -> shrink_svm m (fun m -> Guard_band.Svc m) yield
  | Guard_band.Mlp m ->
    yield (Guard_band.Constant 1);
    let r = Mlp.to_raw m in
    let h = Array.length r.Mlp.raw_hidden_w in
    if h > 1 then
      yield
        (Guard_band.Mlp
           (Mlp.of_raw
              {
                Mlp.raw_hidden_w = Array.sub r.Mlp.raw_hidden_w 0 (h / 2);
                raw_hidden_b = Array.sub r.Mlp.raw_hidden_b 0 (h / 2);
                raw_out_w = Array.sub r.Mlp.raw_out_w 0 (h / 2);
                raw_out_b = r.Mlp.raw_out_b;
              }))

let shrink_flow (f : Compaction.flow) yield =
  match f.Compaction.band with
  | None -> ()
  | Some band ->
    let tight = Guard_band.tight_model band
    and loose = Guard_band.loose_model band in
    if not (Guard_band.is_single band) then
      yield { f with Compaction.band = Some (Guard_band.single_model tight) };
    shrink_model tight (fun m ->
        yield
          {
            f with
            Compaction.band =
              Some
                (if Guard_band.is_single band then Guard_band.single_model m
                 else Guard_band.of_models ~tight:m ~loose);
          });
    if not (Guard_band.is_single band) then
      shrink_model loose (fun m ->
          yield
            { f with Compaction.band = Some (Guard_band.of_models ~tight ~loose:m) })

let arb_flow = QCheck.make ~print:print_flow ~shrink:shrink_flow flow

let arb_flow_with_rows ~rows_per_flow =
  let print (f, rows) = print_flow f ^ "rows:\n" ^ print_rows rows in
  let shrink (f, rows) yield =
    QCheck.Shrink.array rows (fun rows' -> yield (f, rows'));
    shrink_flow f (fun f' -> yield (f', rows))
  in
  QCheck.make ~print ~shrink (flow_with_rows ~rows_per_flow)
