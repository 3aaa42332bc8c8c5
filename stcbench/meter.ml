(* Measurement helpers shared by the workloads: clocks, process CPU and
   memory from /proc, percentiles, sample buffers that pool worker
   domains may append to, and deltas of the process metric registry. *)

let now = Stc_obs.Clock.now

(* CPU seconds of this process, every domain and thread included. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      Buffer.contents b)

(* "VmHWM:    81234 kB" in /proc/<pid>/status, as MB *)
let peak_rss_mb ?(pid = "self") () =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* utime + stime of another process, from /proc/<pid>/stat (fields 14
   and 15, in clock ticks of 1/100 s). The command name may hold spaces,
   so parsing starts after its closing parenthesis. *)
let proc_cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* fields.(0) is field 3 (state) *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.0

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

(* Samples strictly above the nearest-rank [q] percentile. *)
let beyond n q = n - int_of_float (Float.ceil (q *. float_of_int n))

(* The middle value, or the mean of the two middle values. *)
let median xs =
  let s = sorted xs and n = Array.length xs in
  if n = 0 then nan else if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let sum xs = Array.fold_left ( +. ) 0.0 xs

(* The [q] percentile of each time-ordered series (one per source, e.g.
   per connection) as the median over its consecutive windows of at
   least [min] samples (one window when there are fewer) of each
   window's [q] percentile; then the mean over the series. A host stall
   that fills one window's tail moves the result far less than it moves
   the percentile of all samples, and sources whose tails differ weigh
   the same whatever their window counts, where a median over the
   windows of all sources jumped between them. Also returns the
   smallest window's size, for the sample-count self-check. *)
let windowed_percentile ~min series q =
  let one a =
    let n = Array.length a in
    let k = Stdlib.max 1 (n / min) in
    let windows =
      Array.init k (fun i ->
          let lo = i * n / k and hi = (i + 1) * n / k in
          percentile (sorted (Array.sub a lo (hi - lo))) q)
    in
    (median windows, n / k)
  in
  let per = List.map one series in
  ( mean (Array.of_list (List.map fst per)),
    List.fold_left (fun acc (_, n) -> Stdlib.min acc n) max_int per )

(* A growable float buffer safe to append to from several domains. *)
module Samples = struct
  type t = { lock : Mutex.t; mutable data : float array; mutable len : int }

  let create () = { lock = Mutex.create (); data = Array.make 1024 0.0; len = 0 }

  let add t x =
    Mutex.protect t.lock (fun () ->
        if t.len = Array.length t.data then begin
          let bigger = Array.make (2 * t.len) 0.0 in
          Array.blit t.data 0 bigger 0 t.len;
          t.data <- bigger
        end;
        t.data.(t.len) <- x;
        t.len <- t.len + 1)

  let length t = Mutex.protect t.lock (fun () -> t.len)

  let to_array t = Mutex.protect t.lock (fun () -> Array.sub t.data 0 t.len)
end

(* A timer for calls made on any domain: each domain sums the durations
   of its consecutive calls and appends one sample per [batch] calls. *)
let batched_timer samples ~batch =
  let key = Domain.DLS.new_key (fun () -> ref (0, 0.0)) in
  fun f ->
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let acc = Domain.DLS.get key in
        let n, total = !acc in
        let total = total +. (now () -. t0) in
        if n + 1 = batch then begin
          Samples.add samples total;
          acc := (0, 0.0)
        end
        else acc := (n + 1, total))

(* Registry snapshots: the flattened scalar view, so counters and
   histogram sums/buckets can be differenced around a phase. *)
type snapshot = (string, float) Hashtbl.t

let snapshot_of_list pairs : snapshot =
  let h = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) pairs;
  h

let snapshot () = snapshot_of_list (Stc_obs.Registry.flatten ())

let get (s : snapshot) name = Option.value (Hashtbl.find_opt s name) ~default:0.0

let delta before after name = get after name -. get before name

(* Percentile of a registry histogram over the interval between two
   snapshots, interpolated linearly within the bucket that holds the
   [q]-quantile sample; also returns the sample count. *)
let hist_percentile before after name q =
  let prefix = name ^ ".le_" in
  let np = String.length prefix in
  let buckets =
    Hashtbl.fold
      (fun k _ acc ->
        if String.length k > np && String.sub k 0 np = prefix then begin
          let label = String.sub k np (String.length k - np) in
          let bound = if label = "inf" then infinity else float_of_string label in
          (bound, delta before after k) :: acc
        end
        else acc)
      after []
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let count = List.fold_left (fun acc (_, n) -> acc +. n) 0.0 buckets in
  let target = Float.ceil (q *. count) in
  let rec walk lower acc = function
    | [] -> nan
    | (bound, n) :: rest ->
      if acc +. n >= target && n > 0.0 then
        if Float.is_finite bound then lower +. ((bound -. lower) *. (target -. acc) /. n)
        else lower
      else walk bound (acc +. n) rest
  in
  ((if count = 0.0 then nan else walk 0.0 0.0 buckets), int_of_float count)
