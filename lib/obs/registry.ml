(* All hot-path mutations are single Atomic operations; the registry
   mutex guards only registration and export. Never hold the mutex
   around user code. *)

(* Shortest decimal that parses back to the identical float, so the
   text exporter round-trips bit-exactly. *)
let float_str v =
  if v = Float.infinity then "inf"
  else if v = Float.neg_infinity then "-inf"
  else if Float.is_nan v then "nan"
  else begin
    let short = Printf.sprintf "%.12g" v in
    if float_of_string short = v then short else Printf.sprintf "%.17g" v
  end

(* Lock-free float accumulation: CAS retry on the boxed value. *)
let atomic_add_float cell delta =
  let rec go () =
    let old = Atomic.get cell in
    if not (Atomic.compare_and_set cell old (old +. delta)) then go ()
  in
  go ()

module Counter = struct
  type t = int Atomic.t

  let make () = Atomic.make 0
  let incr t = ignore (Atomic.fetch_and_add t 1)

  let add t n =
    if n < 0 then invalid_arg "Counter.add: counters are monotone";
    ignore (Atomic.fetch_and_add t n)

  let get = Atomic.get
  let reset t = Atomic.set t 0
end

module Gauge = struct
  type t = float Atomic.t

  let make () = Atomic.make 0.0
  let set = Atomic.set
  let add = atomic_add_float
  let get = Atomic.get
  let reset t = Atomic.set t 0.0
end

module Histogram = struct
  type t = {
    bounds : float array;  (* strictly increasing upper bounds *)
    buckets : int Atomic.t array;  (* one per bound + overflow last *)
    total : int Atomic.t;
    sum : float Atomic.t;
  }

  (* 1 µs .. 100 s, three buckets per decade: latencies from a single
     kernel evaluation up to a full greedy compaction all land in a
     resolved bucket. *)
  let default_buckets =
    let per_decade = [| 1.0; 2.5; 5.0 |] in
    Array.concat
      (List.map
         (fun e ->
           Array.map (fun m -> m *. (10.0 ** float_of_int e)) per_decade)
         [ -6; -5; -4; -3; -2; -1; 0; 1 ])
    |> fun a -> Array.append a [| 100.0 |]

  let make ?(buckets = default_buckets) () =
    let n = Array.length buckets in
    if n = 0 then invalid_arg "Histogram.make: no buckets";
    Array.iteri
      (fun i b ->
        if not (Float.is_finite b) then
          invalid_arg "Histogram.make: non-finite bucket bound";
        if i > 0 && b <= buckets.(i - 1) then
          invalid_arg "Histogram.make: bounds must be strictly increasing")
      buckets;
    {
      bounds = Array.copy buckets;
      buckets = Array.init (n + 1) (fun _ -> Atomic.make 0);
      total = Atomic.make 0;
      sum = Atomic.make 0.0;
    }

    (* binary search: first bucket whose bound is >= v; overflow if none *)
  let bucket_index t v =
    let n = Array.length t.bounds in
    if Float.is_nan v then n
    else begin
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if v <= t.bounds.(mid) then hi := mid else lo := mid + 1
      done;
      !lo
    end

  let observe t v =
    ignore (Atomic.fetch_and_add t.buckets.(bucket_index t v) 1);
    ignore (Atomic.fetch_and_add t.total 1);
    atomic_add_float t.sum (if Float.is_nan v then 0.0 else v)

  let count t = Atomic.get t.total
  let sum t = Atomic.get t.sum

  let bucket_counts t =
    Array.init
      (Array.length t.buckets)
      (fun i ->
        let bound =
          if i < Array.length t.bounds then t.bounds.(i) else Float.infinity
        in
        (bound, Atomic.get t.buckets.(i)))

  let time t f =
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () -> observe t (Unix.gettimeofday () -. t0))
      f

  let reset t =
    Array.iter (fun b -> Atomic.set b 0) t.buckets;
    Atomic.set t.total 0;
    Atomic.set t.sum 0.0
end

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_hist of Histogram.t

type t = {
  mutex : Mutex.t;
  table : (string, metric) Hashtbl.t;
}

let create () = { mutex = Mutex.create (); table = Hashtbl.create 64 }
let global = create ()

let check_name name =
  if name = "" then invalid_arg "Registry: empty metric name";
  String.iter
    (fun c ->
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = ':' then
        invalid_arg
          (Printf.sprintf "Registry: metric name %S contains whitespace or ':'"
             name))
    name

let intern registry name make_metric describe =
  check_name name;
  Mutex.lock registry.mutex;
  let metric =
    match Hashtbl.find_opt registry.table name with
    | Some m -> m
    | None ->
      let m = make_metric () in
      Hashtbl.add registry.table name m;
      m
  in
  Mutex.unlock registry.mutex;
  match describe metric with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Registry: metric %S already exists as another kind" name)

let counter ?(registry = global) name =
  intern registry name
    (fun () -> M_counter (Counter.make ()))
    (function M_counter c -> Some c | _ -> None)

let gauge ?(registry = global) name =
  intern registry name
    (fun () -> M_gauge (Gauge.make ()))
    (function M_gauge g -> Some g | _ -> None)

let histogram ?(registry = global) ?buckets name =
  intern registry name
    (fun () -> M_hist (Histogram.make ?buckets ()))
    (function M_hist h -> Some h | _ -> None)

let sorted_items registry =
  Mutex.lock registry.mutex;
  let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry.table [] in
  Mutex.unlock registry.mutex;
  List.sort (fun (a, _) (b, _) -> compare a b) items

let reset ?(registry = global) () =
  Mutex.lock registry.mutex;
  Hashtbl.iter
    (fun _ m ->
      match m with
      | M_counter c -> Counter.reset c
      | M_gauge g -> Gauge.reset g
      | M_hist h -> Histogram.reset h)
    registry.table;
  Mutex.unlock registry.mutex

let bound_label b = if b = Float.infinity then "inf" else float_str b

let flatten ?(registry = global) () =
  List.concat_map
    (fun (name, m) ->
      match m with
      | M_counter c -> [ (name, float_of_int (Counter.get c)) ]
      | M_gauge g -> [ (name, Gauge.get g) ]
      | M_hist h ->
        (name ^ ".count", float_of_int (Histogram.count h))
        :: (name ^ ".sum", Histogram.sum h)
        :: Array.to_list
             (Array.map
                (fun (b, n) ->
                  (name ^ ".le_" ^ bound_label b, float_of_int n))
                (Histogram.bucket_counts h)))
    (sorted_items registry)

let to_text ?(registry = global) () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "stc-metrics-1\n";
  List.iter
    (fun (name, m) ->
      match m with
      | M_counter c ->
        Buffer.add_string buf
          (Printf.sprintf "counter %s %d\n" name (Counter.get c))
      | M_gauge g ->
        Buffer.add_string buf
          (Printf.sprintf "gauge %s %s\n" name (float_str (Gauge.get g)))
      | M_hist h ->
        Buffer.add_string buf
          (Printf.sprintf "hist %s %d %s" name (Histogram.count h)
             (float_str (Histogram.sum h)));
        Array.iter
          (fun (b, n) ->
            Buffer.add_string buf
              (Printf.sprintf " %s:%d" (bound_label b) n))
          (Histogram.bucket_counts h);
        Buffer.add_char buf '\n')
    (sorted_items registry);
  Buffer.contents buf

let parse_text text =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let lines = String.split_on_char '\n' text in
  match lines with
  | [] -> fail "empty metrics export"
  | header :: rest ->
    if header <> "stc-metrics-1" then
      fail "bad metrics header %S (want stc-metrics-1)" header
    else begin
      let parse_float ~line s =
        match float_of_string_opt s with
        | Some v -> Ok v
        | None -> fail "line %d: bad number %S" line s
      in
      let rec go acc lineno = function
        | [] -> Ok (List.rev acc)
        | "" :: rest -> go acc (lineno + 1) rest
        | line :: rest -> (
          let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
          match String.split_on_char ' ' line with
          | [ "counter"; name; v ] | [ "gauge"; name; v ] ->
            let* v = parse_float ~line:lineno v in
            go ((name, v) :: acc) (lineno + 1) rest
          | "hist" :: name :: count :: sum :: buckets ->
            let* count = parse_float ~line:lineno count in
            let* sum = parse_float ~line:lineno sum in
            let* pairs =
              List.fold_left
                (fun acc pair ->
                  let* acc = acc in
                  match String.index_opt pair ':' with
                  | None -> fail "line %d: bad bucket %S" lineno pair
                  | Some i ->
                    let bound = String.sub pair 0 i in
                    let n =
                      String.sub pair (i + 1) (String.length pair - i - 1)
                    in
                    let* n = parse_float ~line:lineno n in
                    Ok ((name ^ ".le_" ^ bound, n) :: acc))
                (Ok []) buckets
            in
            (* [pairs] is already reversed; the final [List.rev] puts the
               buckets back in bound order, after count and sum — the
               exact {!flatten} layout *)
            go
              (pairs @ ((name ^ ".sum", sum) :: (name ^ ".count", count) :: acc))
              (lineno + 1) rest
          | _ -> fail "line %d: unparseable metric line %S" lineno line)
      in
      go [] 2 rest
    end
