(* Compares two sets of stcbench runs, pair by pair, against the bounds
   in BENCHMARK.json.

     bench_diff [--bounds BENCHMARK.json] OLD NEW

   OLD and NEW hold stcbench result lines (the last stdout line of a
   run, a JSON object), one run per line; line i of OLD and line i of
   NEW are one pair, run one after the other. For every metric the
   runs report, in BENCHMARK.json's order (end-to-end metrics, then
   per-layer ones), it prints the parent's and the
   change's median with quartiles, the change/parent ratio of the
   medians, the pairs the change won, the bound and a verdict (a
   metric BENCHMARK.json does not declare is not reported):

   - "gain": the change won at least nine tenths of the pairs, and the
     medians differ, in the better direction, by more than the
     parent's interquartile range;
   - "within bound": not a gain, and the change's median is not worse
     than the parent's by more than the bound (relative);
   - "WORSE": the bound is broken;
   - "-": a metric with no bound that is not a gain.

   Quartiles interpolate linearly between order statistics
   (Stc_numerics.Stats.quantile). The exit status is 1 if a bound is
   broken or a run failed an operation more often on the NEW side, 2
   on bad input, 0 otherwise. *)

(* ---------------------------- JSON ------------------------------- *)

(* Just enough JSON for stcbench result lines and BENCHMARK.json. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_input of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_input s)) fmt

let parse_json text =
  let n = String.length text and pos = ref 0 in
  let peek () = if !pos < n then text.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      incr pos;
      skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () <> c then bad "expected '%c' at byte %d" c !pos;
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else bad "unexpected input at byte %d" !pos
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then bad "unterminated string";
      let c = text.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then bad "unterminated string";
        let e = text.[!pos] in
        incr pos;
        (match e with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
           (* metric names are ASCII; keep an escape as written *)
           Buffer.add_string b "\\u"
         | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      skip ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec fields acc =
          let k = string () in
          expect ':';
          let v = value () in
          skip ();
          match peek () with
          | ',' ->
            incr pos;
            fields ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> bad "expected ',' or '}' at byte %d" !pos
        in
        fields []
    | '[' ->
      incr pos;
      skip ();
      if peek () = ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec items acc =
          let v = value () in
          skip ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> bad "expected ',' or ']' at byte %d" !pos
        in
        items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && match text.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false
      do
        incr pos
      done;
      (match float_of_string_opt (String.sub text start (!pos - start)) with
       | Some f when !pos > start -> Num f
       | _ -> bad "unexpected input at byte %d" start)
  in
  let v = value () in
  skip ();
  if !pos <> n then bad "trailing input at byte %d" !pos;
  v

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | Null | Bool _ | Num _ | Str _ | Arr _ -> None

(* ---------------------------- inputs ----------------------------- *)

type run = { correct : bool; attempted : float; failed : float; metrics : (string * (float * string)) list }

let run_of_line ~file ~line text =
  let where = Printf.sprintf "%s:%d" file line in
  match parse_json text with
  | exception Bad_input e -> bad "%s: %s" where e
  | j ->
    let num k = match member k j with Some (Num f) -> f | _ -> bad "%s: no number %S" where k in
    let metrics =
      match member "metrics" j with
      | Some (Obj fields) ->
        List.map
          (fun (name, m) ->
            match (member "value" m, member "unit" m) with
            | Some (Num v), Some (Str u) -> (name, (v, u))
            | _ -> bad "%s: metric %S has no value and unit" where name)
          fields
      | _ -> bad "%s: no \"metrics\" object" where
    in
    { correct = member "correct" j = Some (Bool true); attempted = num "attempted";
      failed = num "failed"; metrics }

let read_runs file =
  let ic = try open_in file with Sys_error e -> bad "%s" e in
  let rec go line acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | text when String.trim text = "" -> go (line + 1) acc
    | text -> go (line + 1) (run_of_line ~file ~line text :: acc)
  in
  go 1 []

(* a metric as BENCHMARK.json declares it *)
type declared = { better_lower : bool; bound : float option }

(* name -> declaration, in BENCHMARK.json's order *)
let read_bounds file =
  let ic = try open_in_bin file with Sys_error e -> bad "%s" e in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = try parse_json text with Bad_input e -> bad "%s: %s" file e in
  let section key =
    match member key j with
    | Some (Arr items) ->
      List.map
        (fun m ->
          match (member "name" m, member "better" m) with
          | Some (Str name), Some (Str better) ->
            let bound = match member "bound" m with Some (Num b) -> Some b | _ -> None in
            (name, { better_lower = better = "lower"; bound })
          | _ -> bad "%s: a %s entry has no name or better" file key)
        items
    | _ -> []
  in
  section "end_to_end" @ section "per_layer"

(* ---------------------------- report ----------------------------- *)

module Stats = Stc_numerics.Stats

type row = {
  name : string;
  unit_ : string;
  old_q : float * float * float;  (* q1, median, q3 *)
  new_q : float * float * float;
  wins : int;
  pairs : int;
  bound : float option;
  verdict : string;
  broken : bool;
}

let quartiles xs = (Stats.quantile xs 0.25, Stats.median xs, Stats.quantile xs 0.75)

let compare_metric ~name ~unit_ ~spec old_v new_v =
  let pairs = Array.length old_v in
  let better a b = if spec.better_lower then a < b else a > b in
  let wins = ref 0 in
  Array.iteri (fun i o -> if better new_v.(i) o then incr wins) old_v;
  let ((q1, om, q3) as old_q) = quartiles old_v and ((_, nm, _) as new_q) = quartiles new_v in
  let gain = 10 * !wins >= 9 * pairs && better nm om && Float.abs (nm -. om) > q3 -. q1 in
  let bound = spec.bound in
  let broken =
    match bound with
    | None -> false
    | Some b ->
      if spec.better_lower then nm > om *. (1.0 +. b) else nm < om *. (1.0 -. b)
  in
  let verdict =
    if gain then "gain"
    else if broken then "WORSE"
    else if bound <> None then "within bound"
    else "-"
  in
  { name; unit_; old_q; new_q; wins = !wins; pairs; bound; verdict; broken }

let rows ~bounds old_runs new_runs =
  List.filter_map
    (fun (name, spec) ->
      let values runs = List.map (fun r -> List.assoc_opt name r.metrics) runs in
      let olds = values old_runs and news = values new_runs in
      (* a metric counts only over the pairs where both runs report it *)
      let both =
        List.filter_map
          (function Some (o, u), Some (n, _) -> Some (o, n, u) | _ -> None)
          (List.combine olds news)
      in
      match both with
      | [] -> None
      | (_, _, unit_) :: _ ->
        let old_v = Array.of_list (List.map (fun (o, _, _) -> o) both)
        and new_v = Array.of_list (List.map (fun (_, n, _) -> n) both) in
        Some (compare_metric ~name ~unit_ ~spec old_v new_v))
    bounds

let print_report ~old_file ~new_file old_runs new_runs rows =
  let n = List.length old_runs in
  let total f runs = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
  let count_correct runs = List.length (List.filter (fun r -> r.correct) runs) in
  Printf.printf "bench-diff: %d pairs, parent %s, change %s\n" n old_file new_file;
  Printf.printf "runs correct: parent %d of %d, change %d of %d\n" (count_correct old_runs) n
    (count_correct new_runs) n;
  Printf.printf "operations failed: parent %g of %g, change %g of %g\n"
    (total (fun r -> r.failed) old_runs) (total (fun r -> r.attempted) old_runs)
    (total (fun r -> r.failed) new_runs) (total (fun r -> r.attempted) new_runs);
  print_newline ();
  print_endline
    "| metric | unit | parent median [q1, q3] | change median [q1, q3] | change / parent | change better | bound | verdict |";
  print_endline "|---|---|---|---|---|---|---|---|";
  List.iter
    (fun r ->
      let q (q1, m, q3) = Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3 in
      let _, om, _ = r.old_q and _, nm, _ = r.new_q in
      let ratio = if om = 0.0 then "-" else Printf.sprintf "%.3f" (nm /. om) in
      Printf.printf "| `%s` | %s | %s | %s | %s | %d of %d | %s | %s |\n" r.name r.unit_
        (q r.old_q) (q r.new_q) ratio r.wins r.pairs
        (match r.bound with Some b -> Printf.sprintf "%g" b | None -> "-")
        r.verdict)
    rows

let () =
  let usage = "bench_diff [--bounds BENCHMARK.json] OLD NEW" in
  let bounds_file = ref "BENCHMARK.json" and files = ref [] in
  Arg.parse
    [ ("--bounds", Arg.Set_string bounds_file, "FILE the benchmark's bounds (BENCHMARK.json)") ]
    (fun f -> files := !files @ [ f ])
    usage;
  match !files with
  | [ old_file; new_file ] -> (
    match
      let bounds = read_bounds !bounds_file in
      let old_runs = read_runs old_file and new_runs = read_runs new_file in
      if List.length old_runs <> List.length new_runs then
        bad "%s has %d runs and %s %d: runs must pair up" old_file (List.length old_runs)
          new_file (List.length new_runs);
      if old_runs = [] then bad "%s has no runs" old_file;
      (old_runs, new_runs, rows ~bounds old_runs new_runs)
    with
    | exception Bad_input e ->
      prerr_endline ("bench_diff: " ^ e);
      exit 2
    | old_runs, new_runs, rows ->
      print_report ~old_file ~new_file old_runs new_runs rows;
      let share runs =
        let attempted = List.fold_left (fun a r -> a +. r.attempted) 0.0 runs in
        if attempted = 0.0 then 0.0
        else List.fold_left (fun a r -> a +. r.failed) 0.0 runs /. attempted
      in
      if List.exists (fun r -> r.broken) rows || share new_runs > share old_runs then exit 1)
  | _ ->
    prerr_endline usage;
    exit 2
