(* Adversarial QA: the Stc_qa generators, differential oracles and
   fault-injection checks, both as qcheck properties (replayable via
   QCHECK_SEED, like the rest of the suite) and as deterministic
   alcotest cases pinning the hardened error paths.

   The two floor properties carry a [~long_factor]: under QCHECK_LONG=1
   (`make qa`) they bin 1,040 generated flows of 16 rows each, at every
   batch size in {1, 7, 64} and domain count in {1, 4}, half of them
   with a retest callback — the acceptance bar for serving-path
   changes. *)

module Spec = Stc.Spec
module Compaction = Stc.Compaction
module Flow_io = Stc_floor.Flow_io
module Device_csv = Stc_floor.Device_csv
module Floor = Stc_floor.Floor
module Pool = Stc_process.Pool
module Rng = Stc_numerics.Rng
module Gen = Stc_qa.Gen
module Oracle = Stc_qa.Oracle
module Faults = Stc_qa.Faults

let qtest = QCheck_alcotest.to_alcotest
let check = function Ok () -> () | Error e -> Alcotest.fail e
let prop = function Ok () -> true | Error e -> QCheck.Test.fail_report e

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------ qcheck properties ----------------------- *)

let batch_sizes = [ 1; 7; 64 ]
let domain_counts = [ 1; 4 ]
let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f ()

(* The boxed Complex.t elimination that Stc_numerics.Cmat replaced with
   split real and imaginary arrays, kept as the reference that solver
   must match bit for bit. [a] is row-major n×n; neither input is
   modified. *)
let boxed_solve n a b0 =
  let m = Array.copy a and b = Array.copy b0 in
  let get i j = m.((i * n) + j) and set i j z = m.((i * n) + j) <- z in
  for k = 0 to n - 1 do
    let pivot = ref k in
    for i = k + 1 to n - 1 do
      if Complex.norm (get i k) > Complex.norm (get !pivot k) then pivot := i
    done;
    if Complex.norm (get !pivot k) < 1e-300 then raise (Stc_numerics.Cmat.Singular k);
    if !pivot <> k then begin
      for j = k to n - 1 do
        let t = get k j in
        set k j (get !pivot j);
        set !pivot j t
      done;
      let t = b.(k) in
      b.(k) <- b.(!pivot);
      b.(!pivot) <- t
    end;
    let pk = get k k in
    for i = k + 1 to n - 1 do
      let f = Complex.div (get i k) pk in
      if f <> Complex.zero then begin
        for j = k to n - 1 do
          set i j (Complex.sub (get i j) (Complex.mul f (get k j)))
        done;
        b.(i) <- Complex.sub b.(i) (Complex.mul f b.(k))
      end
    done
  done;
  let x = Array.make n Complex.zero in
  for i = n - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to n - 1 do
      acc := Complex.sub !acc (Complex.mul (get i j) x.(j))
    done;
    x.(i) <- Complex.div !acc (get i i)
  done;
  x

(* A system (G + jωC) x = b of size 1-16. A quarter of the entries are
   exactly zero and a quarter of the remaining parts are, so rows swap
   and some multipliers are exactly zero; the rest span 25 decades, as
   MNA conductances and capacitances do. *)
let complex_system =
  QCheck.Gen.(
    let part =
      map3
        (fun neg m e -> (if neg then -.m else m) *. (10.0 ** float_of_int e))
        bool (float_range 1.0 10.0) (int_range (-12) 12)
    in
    let part = frequency [ (1, return 0.0); (3, part) ] in
    let entry = frequency [ (1, return (0.0, 0.0)); (3, pair part part) ] in
    let* n = int_range 1 16 in
    let* gc = array_size (return (n * n)) entry in
    let* b = array_size (return n) (map (fun (re, im) -> { Complex.re; im }) entry) in
    let* log_f = float_range 0.0 9.0 in
    return (n, gc, 2.0 *. Float.pi *. (10.0 ** log_f), b))

let split_solve_matches_boxed (n, gc, omega, b) =
  let mat part = { Stc_numerics.Mat.rows = n; cols = n; data = Array.map part gc } in
  let a = Array.map (fun (g, c) -> { Complex.re = g; im = omega *. c }) gc in
  let solve f = match f () with x -> Ok x | exception Stc_numerics.Cmat.Singular k -> Error k in
  let bits v = Int64.bits_of_float v in
  match
    ( solve (fun () -> boxed_solve n a b),
      solve (fun () ->
          let xr = Array.map (fun z -> z.Complex.re) b
          and xi = Array.map (fun z -> z.Complex.im) b in
          Stc_numerics.Cmat.solve (Stc_numerics.Cmat.buffers n) (mat fst) (mat snd) ~omega xr xi;
          Array.init n (fun i -> { Complex.re = xr.(i); im = xi.(i) })) )
  with
  | Ok x, Ok y ->
    Array.iteri
      (fun i (x : Complex.t) ->
        if bits x.re <> bits y.(i).re || bits x.im <> bits y.(i).im then
          QCheck.Test.fail_reportf "x.(%d): boxed %h%+hj, split %h%+hj" i x.re x.im
            y.(i).re y.(i).im)
      x;
    true
  | Error k, Error k' when k = k' -> true
  | Ok _, Error k -> QCheck.Test.fail_reportf "split solve singular at %d, boxed is not" k
  | Error k, Ok _ -> QCheck.Test.fail_reportf "boxed solve singular at %d, split is not" k
  | Error k, Error k' -> QCheck.Test.fail_reportf "singular at %d (boxed) vs %d (split)" k k'

(* Lu.factor_in_place and Lu.solve_into as they were before the
   factorisation listed each pivot row's non-zero columns once and gave
   an exactly-zero entry below the pivot its multiplier without a
   division, kept as the reference those must match bit for bit. *)
let reference_factor (a : Stc_numerics.Mat.t) perm =
  let n = a.rows and d = a.data in
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  let sign = ref 1.0 in
  for k = 0 to n - 1 do
    let rk = k * n in
    let pivot = ref k and best = ref (Float.abs d.(rk + k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs d.((i * n) + k) in
      if v > !best then begin
        pivot := i;
        best := v
      end
    done;
    if !best < 1e-300 then raise (Stc_numerics.Lu.Singular k);
    let p = !pivot in
    if p <> k then begin
      let rp = p * n in
      for j = 0 to n - 1 do
        let t = d.(rk + j) in
        d.(rk + j) <- d.(rp + j);
        d.(rp + j) <- t
      done;
      let t = perm.(k) in
      perm.(k) <- perm.(p);
      perm.(p) <- t;
      sign := -. !sign
    end;
    let pk = d.(rk + k) in
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let lik = d.(ri + k) /. pk in
      d.(ri + k) <- lik;
      if lik <> 0.0 then
        for j = k + 1 to n - 1 do
          let ukj = d.(rk + j) in
          if ukj <> 0.0 then d.(ri + j) <- d.(ri + j) -. (lik *. ukj)
        done
    done
  done;
  !sign

let reference_solve (lu : Stc_numerics.Mat.t) perm b =
  let n = lu.rows and d = lu.data in
  let x = Array.init n (fun i -> b.(perm.(i))) in
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (d.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (d.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !acc /. d.((i * n) + i)
  done;
  x

(* A sparse real system of size 1-12, as MNA stamps them: a third of
   the entries exactly zero and the rest of either sign across 25
   decades, so pivots are negative (making a zero multiplier -0.0) and
   rows swap. A tenth of the systems repeat one row, and a tenth zero
   one column, so they are singular. One entry in 300 is infinite, so
   some pivots are, where a zero multiplier must still be 0/pivot. *)
let real_system =
  QCheck.Gen.(
    let value =
      map3
        (fun neg m e -> (if neg then -.m else m) *. (10.0 ** float_of_int e))
        bool (float_range 1.0 10.0) (int_range (-12) 12)
    in
    let entry =
      frequency
        [ (100, return 0.0); (199, value); (1, oneofl [ infinity; neg_infinity ]) ]
    in
    let* n = int_range 1 12 in
    let* a = array_size (return (n * n)) entry in
    let* b = array_size (return n) entry in
    let* defect = frequency [ (8, return `None); (1, return `Repeat_row); (1, return `Zero_column) ] in
    let* r0 = int_range 0 (n - 1) in
    let* r1 = int_range 0 (n - 1) in
    (match defect with
     | `None -> ()
     | `Repeat_row -> Array.blit a (r0 * n) a (r1 * n) n
     | `Zero_column -> for i = 0 to n - 1 do a.((i * n) + r0) <- 0.0 done);
    return (n, a, b))

let lu_matches_reference (n, a, b) =
  let module Lu = Stc_numerics.Lu in
  let bits v = Int64.bits_of_float v in
  let mat () = { Stc_numerics.Mat.rows = n; cols = n; data = Array.copy a } in
  let want = mat () and got = mat () in
  let want_perm = Array.make n 0 and got_perm = Array.make n 0 in
  let factor f = match f () with s -> Ok s | exception Lu.Singular k -> Error k in
  match
    ( factor (fun () -> reference_factor want want_perm),
      factor (fun () -> Lu.factor_in_place got got_perm (Array.make n 0)) )
  with
  | Ok s, Ok s' ->
    if bits s <> bits (float_of_int s') then
      QCheck.Test.fail_reportf "sign %d, reference %g" s' s;
    if got_perm <> want_perm then QCheck.Test.fail_report "permutations differ";
    Array.iteri
      (fun k w ->
        if bits w <> bits got.data.(k) then
          QCheck.Test.fail_reportf "factor (%d, %d): %h, reference %h" (k / n) (k mod n)
            got.data.(k) w)
      want.data;
    let x = Array.make n 0.0 in
    Lu.solve_into got got_perm b x;
    Array.iteri
      (fun i w ->
        if bits w <> bits x.(i) then
          QCheck.Test.fail_reportf "x.(%d): %h, reference %h" i x.(i) w)
      (reference_solve want want_perm b);
    true
  | Error k, Error k' when k = k' -> true
  | Ok _, Error k -> QCheck.Test.fail_reportf "singular at %d, the reference is not" k
  | Error k, Ok _ -> QCheck.Test.fail_reportf "the reference is singular at %d, this is not" k
  | Error k, Error k' -> QCheck.Test.fail_reportf "singular at %d, the reference at %d" k' k

(* A linear netlist on 2-6 nodes. Every node hangs from ground or an
   earlier node by a resistor, so the resistive network alone fixes
   every voltage; resistors, capacitors and current sources are added
   between random points, and voltage sources (from a node to ground,
   in either orientation, or floating) and inductors wherever they do
   not close a loop of voltage-defined elements with ground, so the
   system is not singular. The first element is a grounded source.
   A quarter of the netlists then add a second grounded source on the
   first pinned node: that loop makes the system singular, which the
   third component says. *)
type linear_element =
  | Res of int * int * float
  | Cap of int * int * float
  | Ind of int * int * float
  | Vsrc of int * int * float * float
  | Isrc of int * int * float * float

let linear_netlist =
  QCheck.Gen.(
    let* k = int_range 2 6 in
    let vertex = int_range 0 k (* [k] is ground *) and node = int_range 0 (k - 1) in
    let decades lo hi = map (fun e -> 10.0 ** e) (float_range lo hi) in
    let volts = float_range (-5.0) 5.0 and amps = float_range (-1e-3) 1e-3 in
    let ac = frequency [ (1, return 0.0); (1, float_range (-1.0) 1.0) ] in
    let grounded =
      map3
        (fun p flip (dc, mag) -> if flip then Vsrc (k, p, dc, mag) else Vsrc (p, k, dc, mag))
        node bool (pair volts ac)
    in
    let element =
      frequency
        [
          (3, map3 (fun a b r -> Res (a, b, r)) vertex vertex (decades 0.0 4.0));
          (2, map3 (fun a b c -> Cap (a, b, c)) vertex vertex (decades (-12.0) (-9.0)));
          (2, map3 (fun a b l -> Ind (a, b, l)) vertex vertex (decades (-6.0) (-3.0)));
          (3, grounded);
          (2, map3 (fun a b (dc, mag) -> Vsrc (a, b, dc, mag)) node node (pair volts ac));
          (2, map3 (fun a b (dc, mag) -> Isrc (a, b, dc, mag)) vertex vertex (pair amps ac));
        ]
    in
    let* tree =
      flatten_l
        (List.init k (fun i ->
             map2 (fun j r -> Res (i, (if j = i then k else j), r)) (int_range 0 i)
               (decades 0.0 4.0)))
    in
    let* first = grounded in
    let* extra = list_size (int_range 0 8) element in
    let* double = frequency [ (3, return false); (1, return true) ] in
    let* dup = pair volts ac in
    (* voltage sources and inductors join their ends; one that would
       join two points already joined is left out *)
    let root = Array.init (k + 1) Fun.id in
    let rec find i = if root.(i) = i then i else find root.(i) in
    let joins a b =
      let ra = find a and rb = find b in
      ra <> rb
      && begin
        root.(ra) <- rb;
        true
      end
    in
    let keep = function
      | Res (a, b, _) | Cap (a, b, _) | Isrc (a, b, _, _) -> a <> b
      | Ind (a, b, _) | Vsrc (a, b, _, _) -> joins a b
    in
    let elements = List.filter keep ((first :: tree) @ extra) in
    let elements =
      match first with
      | Vsrc (a, b, _, _) when double ->
        let pinned = if a = k then b else a in
        elements @ [ Vsrc (pinned, k, fst dup, snd dup) ]
      | _ -> elements
    in
    let name i = if i = k then "0" else Printf.sprintf "n%d" i in
    let* log_f = list_repeat 3 (float_range 0.0 6.0) in
    return
      ( Stc_circuit.Netlist.of_elements
          (List.mapi
             (fun i e ->
               let id = string_of_int i in
               match e with
               | Res (a, b, r) -> Stc_circuit.Netlist.r ("r" ^ id) (name a) (name b) r
               | Cap (a, b, c) -> Stc_circuit.Netlist.c ("c" ^ id) (name a) (name b) c
               | Ind (a, b, l) -> Stc_circuit.Netlist.l ("l" ^ id) (name a) (name b) l
               | Vsrc (a, b, dc, mag) ->
                 Stc_circuit.Netlist.vac ("v" ^ id) (name a) (name b) ~dc ~mag
               | Isrc (a, b, dc, mag) ->
                 Stc_circuit.Netlist.Isource
                   { name = "i" ^ id; p = name a; n = name b;
                     wave = Stc_circuit.Wave.Dc dc; ac = mag })
             elements),
        List.map (fun e -> 10.0 ** e) log_f,
        double ))

let print_linear (netlist, freqs, _) =
  let module N = Stc_circuit.Netlist in
  let wave = function Stc_circuit.Wave.Dc v -> Printf.sprintf "%h" v | _ -> "?" in
  String.concat "; "
    (List.map
       (function
         | N.Resistor { name; p; n; r } -> Printf.sprintf "%s %s %s %h" name p n r
         | N.Capacitor { name; p; n; c } -> Printf.sprintf "%s %s %s %h" name p n c
         | N.Inductor { name; p; n; l } -> Printf.sprintf "%s %s %s %h" name p n l
         | N.Vsource { name; p; n; wave = w; ac } | N.Isource { name; p; n; wave = w; ac } ->
           Printf.sprintf "%s %s %s dc %s ac %h" name p n (wave w) ac
         | N.Mosfet { name; _ } -> name)
       netlist.N.elements)
  ^ Printf.sprintf " at %s Hz" (String.concat ", " (List.map (Printf.sprintf "%h") freqs))

(* The full MNA system, every unknown kept, as the solves worked before
   grounded sources pinned their nodes: the DC operating point by one
   stamp at Dc's default gmin and one LU solve (the netlist is linear),
   and each AC point by Cmat.solve on Mna.ac_matrices. *)
let reference_dc sys =
  let module Lu = Stc_numerics.Lu in
  let n = Stc_circuit.Mna.size sys in
  let g = Stc_numerics.Mat.create n n 0.0 and b = Array.make n 0.0 in
  Stc_circuit.Mna.stamp sys ~g ~b ~x:(Array.make n 0.0) ~mos:(Stc_circuit.Mosfet.op ())
    ~time:0.0 ~gmin:Stc_circuit.Dc.default_options.gmin ~source_scale:1.0;
  let perm = Array.make n 0 and x = Array.make n 0.0 in
  ignore (Lu.factor_in_place g perm (Array.make n 0) : int);
  Lu.solve_into g perm b x;
  x

let reference_ac sys ~op ~freq =
  let g, c, b = Stc_circuit.Mna.ac_matrices sys ~op in
  let n = Array.length b in
  let xr = Array.map (fun z -> z.Complex.re) b and xi = Array.map (fun z -> z.Complex.im) b in
  Stc_numerics.Cmat.solve (Stc_numerics.Cmat.buffers n) g c ~omega:(2.0 *. Float.pi *. freq) xr
    xi;
  Array.init n (fun i -> { Complex.re = xr.(i); im = xi.(i) })

(* [got] agrees with [want] within 1e-12 of [want]'s largest unknown:
   a branch current that only gmin carries is a difference of much
   larger terms in the full system's elimination, so an unknown's own
   magnitude is not its error's scale *)
let agree ~what want got =
  let scale = Array.fold_left (fun m w -> Float.max m (Complex.norm w)) 0.0 want in
  Array.iteri
    (fun i w ->
      if Complex.norm (Complex.sub got.(i) w) > 1e-12 *. scale then
        QCheck.Test.fail_reportf "%s: unknown %d is %h%+hj, the full system's %h%+hj" what i
          got.(i).Complex.re got.(i).Complex.im w.Complex.re w.Complex.im)
    want

(* The condensed solves refuse a system exactly when the full one is
   singular; otherwise they agree. The full system's complex
   elimination leaves rounding residue where the duplicated branch rows
   of a singular netlist should cancel, so it need not find that system
   singular at every frequency, and a singular netlist only has to be
   refused. *)
let condensed_matches_full (netlist, freqs, singular) =
  let module Mna = Stc_circuit.Mna in
  let sys = Mna.build netlist in
  let real x = Array.map (fun re -> { Complex.re; im = 0.0 }) x in
  let solve f = match f () with x -> Ok x | exception e -> Error (Printexc.to_string e) in
  let judge what want got =
    match (want, got) with
    | _, Error _ when singular -> ()
    | _, Ok _ when singular -> QCheck.Test.fail_reportf "%s: a singular system solved" what
    | Ok want, Ok got -> agree ~what want got
    | Error _, Error _ -> ()
    | Ok _, Error e -> QCheck.Test.fail_reportf "%s refused (%s), the full system is not" what e
    | Error e, Ok _ ->
      QCheck.Test.fail_reportf "%s: the full system is singular (%s), this is not" what e
  in
  let dc = solve (fun () -> reference_dc sys) in
  judge "DC" (Result.map real dc) (Result.map real (solve (fun () -> Stc_circuit.Dc.solve sys)));
  let op = match dc with Ok x -> x | Error _ -> Array.make (Mna.size sys) 0.0 in
  List.iter
    (fun freq ->
      judge (Printf.sprintf "AC at %g Hz" freq)
        (solve (fun () -> reference_ac sys ~op ~freq))
        (solve (fun () -> Stc_circuit.Ac.solve_one sys ~op ~freq)))
    freqs;
  true

(* The decision fold Svr.predict and Svc.decision ran over boxed
   support vectors before those moved into one Flat matrix, kept as the
   reference the fused decision function must match bit for bit. *)
let boxed_decision kernel sv coef b x =
  let acc = ref b in
  Array.iteri
    (fun i s -> acc := !acc +. (coef.(i) *. Stc_svm.Kernel.eval kernel s x))
    sv;
  !acc

(* Models of width 1-12 under each of the four kernels, a fifth of them
   with no support vector; one probe is a support vector, so one
   distance is exactly zero. *)
let decision_case =
  QCheck.Gen.(
    let* dim = int_range 1 12 in
    let* nsv = frequency [ (1, return 0); (4, int_range 1 40) ] in
    let coord = float_range (-3.0) 3.0 in
    let* sv = array_size (return nsv) (array_size (return dim) coord) in
    let* coef = array_size (return nsv) (float_range (-10.0) 10.0) in
    let* b = float_range (-2.0) 2.0 in
    let* probes = array_size (int_range 1 4) (array_size (return dim) coord) in
    let probes = if nsv > 0 then Array.append probes [| sv.(0) |] else probes in
    let* gamma = float_range 0.05 4.0 in
    let* coef0 = float_range (-1.0) 1.0 in
    let* degree = int_range 2 3 in
    return
      ( Stc_svm.Kernel.
          [
            linear;
            rbf gamma;
            Polynomial { gamma; coef0; degree };
            Sigmoid { gamma; coef0 };
          ],
        sv,
        coef,
        b,
        probes ))

let flat_decision_matches_boxed (kernels, sv, coef, b, probes) =
  let module Svr = Stc_svm.Svr in
  let module Svc = Stc_svm.Svc in
  List.for_all
    (fun kernel ->
      let svr =
        Svr.of_raw { Svr.raw_kernel = kernel; raw_sv = sv; raw_coef = coef; raw_b = b }
      and svc =
        Svc.of_raw { Svc.raw_kernel = kernel; raw_sv = sv; raw_coef = coef; raw_b = b }
      in
      Array.for_all
        (fun x ->
          let want = boxed_decision kernel sv coef b x in
          let same what got =
            Int64.bits_of_float got = Int64.bits_of_float want
            || QCheck.Test.fail_reportf "%a, %d support vectors: %s %h, boxed fold %h"
                 Stc_svm.Kernel.pp kernel (Array.length sv) what got want
          in
          same "Svr.predict" (Svr.predict svr x)
          && same "Svc.decision" (Svc.decision svc x))
        probes)
    kernels

let property_tests =
  [
    qtest
      (QCheck.Test.make ~name:"floor matches the reference binner" ~count:40
         ~long_factor:13
         (Gen.arb_flow_with_rows ~rows_per_flow:16)
         (fun (flow, rows) ->
           prop (Oracle.floor_matches ~batch_sizes ~domain_counts flow rows)));
    qtest
      (QCheck.Test.make ~name:"floor matches reference under retest" ~count:40
         ~long_factor:13
         (Gen.arb_flow_with_rows ~rows_per_flow:16)
         (fun (flow, rows) ->
           let retest row =
             Array.for_all2 Spec.passes flow.Compaction.specs row
           in
           prop
             (Oracle.floor_matches ~retest ~batch_sizes ~domain_counts flow
                rows)));
    qtest
      (QCheck.Test.make ~name:"flow print/parse/print is canonical" ~count:200
         Gen.arb_flow
         (fun flow -> prop (Oracle.flow_roundtrips flow)));
    qtest
      (QCheck.Test.make ~name:"verdicts survive the disk round trip" ~count:100
         (Gen.arb_flow_with_rows ~rows_per_flow:6)
         (fun (flow, rows) -> prop (Oracle.flow_verdicts_survive flow rows)));
    qtest
      (QCheck.Test.make ~name:"svm decisions match brute force" ~count:200
         (QCheck.make (fun st ->
              let dim = 1 + Random.State.int st 5 in
              let probe =
                Array.init dim (fun _ ->
                    -1.5 +. (4.0 *. Random.State.float st 1.0))
              in
              (Gen.svr ~dim st, Gen.svc ~dim st, probe)))
         (fun (svr, svc, probe) ->
           prop
             (let* () = Oracle.svr_agrees svr probe in
              let* () = Oracle.svc_agrees svc probe in
              let* () = Oracle.svr_roundtrips svr in
              Oracle.svc_roundtrips svc)));
    qtest
      (QCheck.Test.make ~name:"trained svm duals feasible, decisions agree"
         ~count:20
         (QCheck.make (fun st ->
              let dim = 1 + Random.State.int st 3 in
              let probe =
                Array.init dim (fun _ ->
                    -0.5 +. (2.0 *. Random.State.float st 1.0))
              in
              (Gen.trained_svc ~dim ~n:40 st, Gen.trained_svr ~dim ~n:40 st,
               probe)))
         (fun ((c_svc, svc), (c_svr, svr), probe) ->
           prop
             (let* () = Oracle.svc_dual_feasible ~c:c_svc svc in
              let* () = Oracle.svr_dual_feasible ~c:c_svr svr in
              let* () = Oracle.svc_agrees svc probe in
              Oracle.svr_agrees svr probe)));
    qtest
      (QCheck.Test.make ~name:"flat kernel rows match boxed eval bitwise"
         ~count:100
         (QCheck.make
            QCheck.Gen.(
              let* dim = int_range 1 6 in
              let* n = int_range 2 25 in
              let* rows =
                array_size (return n)
                  (array_size (return dim) (float_range (-3.0) 3.0))
              in
              let* gamma = float_range 0.05 2.0 in
              let* coef0 = float_range (-1.0) 1.0 in
              let* degree = int_range 2 4 in
              return
                ( Stc_svm.Kernel.
                    [
                      linear;
                      rbf gamma;
                      Polynomial { gamma; coef0; degree };
                      Sigmoid { gamma; coef0 };
                    ],
                  rows )))
         (fun (kernels, rows) -> prop (Oracle.flat_kernel_agrees kernels rows)));
    qtest
      (QCheck.Test.make ~name:"flat svm decision matches boxed fold bitwise"
         ~count:200 ~long_factor:10 (QCheck.make decision_case)
         flat_decision_matches_boxed);
    qtest
      (QCheck.Test.make ~name:"device CSV round trips bit-identically"
         ~count:50
         (QCheck.make
            QCheck.Gen.(
              let* specs = Gen.specs () in
              let* n = int_range 1 20 in
              let* rows = Gen.rows specs ~n in
              return (specs, rows)))
         (fun (specs, rows) -> prop (Oracle.csv_roundtrips ~specs ~rows)));
    qtest
      (QCheck.Test.make ~name:"split complex solve matches boxed bitwise" ~count:300
         ~long_factor:10 (QCheck.make complex_system) split_solve_matches_boxed);
    qtest
      (QCheck.Test.make ~name:"pattern-skipping LU matches the reference elimination bitwise"
         ~count:300 ~long_factor:10 (QCheck.make real_system) lu_matches_reference);
    qtest
      (QCheck.Test.make ~name:"condensed DC and AC solves match the full MNA system"
         ~count:300 ~long_factor:10
         (QCheck.make ~print:print_linear linear_netlist)
         condensed_matches_full);
  ]

(* ----------------------- flow_io error paths ---------------------- *)

(* A minimal hand-written flow so each test controls the exact bytes. *)
let base_flow_text =
  "stc-flow-1\n" ^ "guard_fraction 0\n" ^ "measured_guard 0\n" ^ "specs 1\n"
  ^ "spec gain V 1 0 2\n" ^ "kept 1 0\n" ^ "dropped 0\n" ^ "band none\n"

(* The same flow with a one-SVR band, whose body floats are read by
   Stc_svm.Model_io rather than by Flow_io itself. *)
let svr_flow_text =
  String.concat "\n"
    [
      "stc-flow-1"; "guard_fraction 0"; "measured_guard 0"; "specs 2";
      "spec gain V 1 0 2"; "spec bw Hz 1 0 2"; "kept 1 0"; "dropped 1 1";
      "band single"; "model svr 6"; "stc-svr-1"; "kernel rbf 1"; "bias 0.25";
      "nsv 2"; "1 0.5"; "-1 1.5"; "";
    ]

let replace_line i repl text =
  String.split_on_char '\n' text
  |> List.mapi (fun j line -> if j = i then repl else line)
  |> String.concat "\n"

let expect_error_containing what needle = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error e ->
    if not (contains e needle) then
      Alcotest.failf "%s: error %S does not mention %S" what e needle

let flow_io_error_tests =
  [
    Alcotest.test_case "the minimal flow parses" `Quick (fun () ->
        List.iter
          (fun text ->
            match Flow_io.of_string text with
            | Ok flow ->
              Alcotest.(check (result string string)) "same bytes" (Ok text)
                (Flow_io.to_string flow)
            | Error e -> Alcotest.fail e)
          [ base_flow_text; svr_flow_text ]);
    Alcotest.test_case "unknown version is named" `Quick (fun () ->
        expect_error_containing "version skew" "unsupported flow version"
          (Flow_io.of_string (replace_line 0 "stc-flow-9" base_flow_text)));
    Alcotest.test_case "non-flow header is still distinct" `Quick (fun () ->
        expect_error_containing "bad header" "expected"
          (Flow_io.of_string (replace_line 0 "not-a-flow" base_flow_text)));
    Alcotest.test_case "truncation names the line" `Quick (fun () ->
        let cut =
          String.concat "\n"
            [ "stc-flow-1"; "guard_fraction 0"; "measured_guard 0"; "" ]
        in
        expect_error_containing "truncation" "truncated"
          (Flow_io.of_string cut);
        expect_error_containing "truncation line number" "line 4"
          (Flow_io.of_string cut));
    Alcotest.test_case "non-finite guard fraction rejected" `Quick (fun () ->
        expect_error_containing "nan fraction" "non-finite"
          (Flow_io.of_string
             (replace_line 1 "guard_fraction nan" base_flow_text)));
    Alcotest.test_case "guard fraction range checked" `Quick (fun () ->
        expect_error_containing "fraction 1.5" "out of range"
          (Flow_io.of_string
             (replace_line 1 "guard_fraction 1.5" base_flow_text)));
    Alcotest.test_case "kept/dropped must partition" `Quick (fun () ->
        expect_error_containing "double-listed index" "partition"
          (Flow_io.of_string (replace_line 6 "dropped 1 0" base_flow_text)));
    Alcotest.test_case "non-finite spec bound rejected" `Quick (fun () ->
        expect_error_containing "inf bound" "non-finite"
          (Flow_io.of_string
             (replace_line 4 "spec gain V 1 0 inf" base_flow_text)));
    Alcotest.test_case "non-finite SVR bias rejected" `Quick (fun () ->
        expect_error_containing "nan bias" "non-finite"
          (Flow_io.of_string (replace_line 12 "bias nan" svr_flow_text)));
    Alcotest.test_case "non-finite SVR coefficient rejected" `Quick (fun () ->
        expect_error_containing "inf coefficient" "non-finite"
          (Flow_io.of_string (replace_line 14 "inf 0.5" svr_flow_text));
        expect_error_containing "-inf cell" "non-finite"
          (Flow_io.of_string (replace_line 15 "-1 -inf" svr_flow_text)));
    Alcotest.test_case "non-finite kernel parameter rejected" `Quick (fun () ->
        expect_error_containing "nan gamma" "non-finite"
          (Flow_io.of_string (replace_line 11 "kernel rbf nan" svr_flow_text)));
    Alcotest.test_case "load reports a missing file" `Quick (fun () ->
        match Flow_io.load ~path:"/nonexistent/flow.stc" with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error _ -> ());
  ]

(* --------------------- device CSV error paths --------------------- *)

let with_temp_text text f =
  let path = Filename.temp_file "stc_qa_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      f path)

let device_csv_tests =
  [
    Alcotest.test_case "NaN cell names line and column" `Quick (fun () ->
        with_temp_text "a,b\n1,2\n3,nan\n" (fun path ->
            expect_error_containing "nan cell" "line 3"
              (Device_csv.read ~path);
            expect_error_containing "nan cell" "non-finite"
              (Device_csv.read ~path)));
    Alcotest.test_case "inf cell rejected" `Quick (fun () ->
        with_temp_text "a\ninf\n" (fun path ->
            expect_error_containing "inf cell" "non-finite"
              (Device_csv.read ~path)));
    Alcotest.test_case "ragged row names the line" `Quick (fun () ->
        with_temp_text "a,b\n1,2,3\n" (fun path ->
            expect_error_containing "ragged" "line 2" (Device_csv.read ~path)));
    Alcotest.test_case "non-numeric cell names the cell" `Quick (fun () ->
        with_temp_text "a,b\n1,oops\n" (fun path ->
            expect_error_containing "text cell" "oops" (Device_csv.read ~path)));
    Alcotest.test_case "write refuses non-finite values" `Quick (fun () ->
        let specs = [| Spec.make ~name:"a" ~unit_label:"V" ~nominal:1.0 ~lower:0.0 ~upper:2.0 |] in
        let path = Filename.temp_file "stc_qa_test" ".csv" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            match Device_csv.write ~path ~specs ~rows:[| [| Float.nan |] |] with
            | () -> Alcotest.fail "expected Invalid_argument"
            | exception Invalid_argument msg ->
              if not (contains msg "non-finite") then
                Alcotest.failf "unexpected message %S" msg));
  ]

(* ------------------------- fault injection ------------------------ *)

let fault_tests =
  let flow_at seed = Gen.run ~seed Gen.flow in
  [
    Alcotest.test_case "corrupted flows reject or reparse" `Quick (fun () ->
        let rng = Rng.create 42 in
        for seed = 1 to 10 do
          match Faults.check_flow_corruption rng ~trials:40 (flow_at seed) with
          | Ok (_rejected, _accepted) -> ()
          | Error e -> Alcotest.fail e
        done);
    Alcotest.test_case "version skew and truncation are typed" `Quick (fun () ->
        check (Faults.check_version_skew (flow_at 3)));
    Alcotest.test_case "malformed band models are typed errors" `Quick
      (fun () ->
        let ragged = ref 0 and narrowed = ref 0 in
        for seed = 1 to 20 do
          match Faults.check_malformed_models (flow_at seed) with
          | Ok (r, n) ->
            ragged := !ragged + r;
            narrowed := !narrowed + n
          | Error e -> Alcotest.fail e
        done;
        Alcotest.(check bool) "ragged support vectors checked" true (!ragged > 0);
        Alcotest.(check bool) "narrowed kept lists checked" true (!narrowed > 0));
    Alcotest.test_case "CSV rejects injected bad rows" `Quick (fun () ->
        let rng = Rng.create 7 in
        for seed = 1 to 5 do
          let flow, rows =
            Gen.run ~seed (Gen.flow_with_rows ~rows_per_flow:8)
          in
          check
            (Faults.check_csv_rejects_bad_rows rng ~trials:20
               ~specs:flow.Compaction.specs ~rows)
        done);
    Alcotest.test_case "floor survives injected bad rows" `Quick (fun () ->
        let rng = Rng.create 11 in
        for seed = 1 to 5 do
          check (Faults.check_floor_bad_rows rng ~trials:15 (flow_at seed))
        done);
  ]

(* ----------------------------- pool ------------------------------- *)

let pool_tests =
  [
    Alcotest.test_case "worker exception is contained" `Quick (fun () ->
        check (Faults.check_pool_worker_failure ~domains:1);
        check (Faults.check_pool_worker_failure ~domains:4));
    Alcotest.test_case "stalled worker loses no tasks" `Quick (fun () ->
        check (Faults.check_pool_worker_delay ~domains:1 ~delay_s:0.01);
        check (Faults.check_pool_worker_delay ~domains:4 ~delay_s:0.01));
    Alcotest.test_case "zero tasks and shutdown misuse" `Quick (fun () ->
        check (Faults.check_pool_misuse ()));
    Alcotest.test_case "one pool serves two job shapes" `Quick (fun () ->
        Pool.with_pool ~domains:3 (fun pool ->
            let squares = Array.make 64 0 in
            Pool.run pool ~n:64 (fun i -> squares.(i) <- i * i);
            Alcotest.(check int) "square job" 85344
              (Array.fold_left ( + ) 0 squares);
            let hits = Array.make 17 0 in
            Pool.run pool ~n:17 (fun i -> hits.(i) <- hits.(i) + 1);
            Alcotest.(check (array int)) "each task once" (Array.make 17 1)
              hits));
    Alcotest.test_case "a task re-entering its own pool is refused" `Quick
      (fun () ->
        List.iter
          (fun domains ->
            Pool.with_pool ~domains (fun pool ->
                Alcotest.check_raises
                  (Printf.sprintf "nested run, %d domains" domains)
                  (Invalid_argument "Pool.run: a job is already in flight")
                  (fun () ->
                    Pool.run pool ~n:8 (fun _ -> Pool.run pool ~n:1 ignore));
                let hits = Array.make 32 0 in
                Pool.run pool ~n:32 (fun i -> hits.(i) <- hits.(i) + 1);
                Alcotest.(check (array int)) "clean job after" (Array.make 32 1)
                  hits))
          [ 1; 2; 4 ]);
    Alcotest.test_case "2,000 back-to-back small jobs run every task once"
      `Quick (fun () ->
        (* with fewer tasks than domains, some helpers find no work and
           must still count down the job before the next one starts *)
        let sizes = [| 1; 2; 3; 7 |] in
        Pool.with_pool ~domains:4 (fun pool ->
            for job = 0 to 1999 do
              let n = sizes.(job mod Array.length sizes) in
              let hits = Array.make n 0 in
              Pool.run pool ~n (fun i -> hits.(i) <- hits.(i) + 1);
              if Array.exists (fun h -> h <> 1) hits then
                Alcotest.failf "job %d (%d tasks): %s" job n
                  (String.concat " " (Array.to_list (Array.map string_of_int hits)))
            done));
  ]

let suites =
  [
    ("qa.properties", property_tests);
    ("qa.flow_io_errors", flow_io_error_tests);
    ("qa.device_csv_errors", device_csv_tests);
    ("qa.faults", fault_tests);
    ("qa.pool", pool_tests);
  ]
