(* The state of one benchmark run: its metrics, its counted operations
   and correctness checks, its self-checks, and its spans. *)

type t = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  tag : string;  (** in every span name: the spans of one run share it *)
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * string * float) list;  (** reversed *)
}

let create ~workload ~seed ~seconds ~traced =
  {
    workload;
    seed;
    seconds;
    traced;
    tag = Printf.sprintf "run=%s-%d-%d" workload seed (Unix.getpid ());
    attempted = 0;
    failed = 0;
    metrics = [];
  }

let emit t name unit_ value = t.metrics <- (name, unit_, value) :: t.metrics

(* A counted operation: a repetition, a request or a correctness check. *)
let count t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

(* Correctness checks by name, in first-seen order: (name, passed, failed). *)
let checks : (string * int ref * int ref) list ref = ref []

let check t name ok =
  count t ok;
  let _, passed, failed =
    match List.find_opt (fun (n, _, _) -> n = name) !checks with
    | Some c -> c
    | None ->
      let c = (name, ref 0, ref 0) in
      checks := !checks @ [ c ];
      c
  in
  incr (if ok then passed else failed)

let print_checks () =
  List.iter
    (fun (name, passed, failed) ->
      Printf.printf "check %-58s %s (%d of %d)\n" name
        (if !failed = 0 then "ok" else "FAILED")
        !passed (!passed + !failed))
    !checks

(* Self-checks test the benchmark, not the program: a miss is printed
   and counted in selfcheck.misses, never hidden and never a failure. *)
let misses = ref 0

let self_check name ok detail =
  Printf.printf "selfcheck %-52s %s  %s\n" name (if ok then "ok  " else "MISS") detail;
  if not ok then incr misses

let percentile_check name n q =
  let b = Meter.beyond n q in
  self_check
    (Printf.sprintf "%s: 10 samples beyond p%g" name (100.0 *. q))
    (b >= 10) (Printf.sprintf "n=%d beyond=%d" n b)

let tagged t name = name ^ " " ^ t.tag

let span t name f = Stc_obs.Trace.with_span (tagged t name) f

(* The distinct populations of a run, derived from the workload seed. *)
let pop_seed t k = Hashtbl.hash (t.seed, k, "stcbench")

(* Files a run leaves behind: flows, trace dumps. *)
let work_dir = ".stcbench"

let work_file name =
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755;
  Filename.concat work_dir name
