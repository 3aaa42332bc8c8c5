(* The equivalence gate for a change that moves simulator numerics.

     equiv record           prints the record on stdout
     equiv diff OLD NEW     compares two records

   A record holds one canonical line per fact, "KIND KEY VALUE", where
   KEY has no spaces and says which population and step the fact
   belongs to:

   - "pop/SEED/DRAW/SPEC": every spec of the first 200 op-amp draws of
     seeds 2005-2008 (streams 0-199, attempt 0), each draw's sizing
     measured uncalibrated by Measure_opamp, in %.17g (KIND "spec"),
     and one MD5 of each population's spec bits ("pop/SEED/digest",
     KIND "bytes");
   - "opamp/SEED/...": `stc opamp`'s greedy loop at 800 + 400 on seeds
     2005-2008: per step the spec, the decision and e_p in %.17g, per
     flow its Flow_io.fingerprint (KIND "bytes"), its escape, loss and
     guard counts and an MD5 of its verdict on every test device;
   - "mems/SEED/TRAIN+TEST/NAME/...": `stc mems`'s three eliminations on
     seeds 2005-2008, at 800 + 400 and at 1000 + 1000, with the same
     flow lines.

   The diff pairs the lines of OLD and NEW by KEY and puts each pair in
   one of three classes:

   - identical;
   - moved: a "spec" or "bytes" line whose value differs. It reports
     the largest relative move per spec (the last part of the KEY) and
     the keys of the moved "bytes" lines;
   - changed: a "fact" line whose value differs (a decision, e_p, a
     count or a verdict digest), a line on one side only, a line whose
     KIND differs, or a spec that is not a number on one side.

   The exit status is 1 if any line changed, 2 on bad input, 0
   otherwise. *)

module Compaction = Stc.Compaction
module Device_data = Stc.Device_data
module Experiment = Stc.Experiment
module Metrics = Stc.Metrics
module Measure_opamp = Stc_circuit.Measure_opamp

(* ---------------------------- record ----------------------------- *)

let seeds = [ 2005; 2006; 2007; 2008 ]

let key_name name = String.map (fun c -> if c = ' ' then '-' else c) name

let line kind key value = Printf.printf "%s %s %s\n" kind key value

let population seed =
  let params = (Experiment.opamp_device ()).Stc_process.Montecarlo.params in
  let bits = Buffer.create (200 * 11 * 17) in
  for index = 0 to 199 do
    let rng = Stc_process.Montecarlo.instance_rng ~seed ~index ~attempt:0 in
    let draw = Stc_process.Variation.sample_all rng params in
    let key spec = Printf.sprintf "pop/%d/%03d/%s" seed index spec in
    match Measure_opamp.measure (Experiment.opamp_params_of_draw draw) with
    | values ->
      Array.iteri
        (fun j v ->
          line "spec" (key (key_name Experiment.opamp_specs.(j).Stc.Spec.name))
            (Printf.sprintf "%.17g" v);
          Buffer.add_string bits (Printf.sprintf "%016Lx," (Int64.bits_of_float v)))
        (Measure_opamp.to_array values)
    | exception Measure_opamp.Measurement_failed msg ->
      line "fact" (key "failed") msg;
      Buffer.add_string bits "failed,"
  done;
  line "bytes" (Printf.sprintf "pop/%d/digest" seed)
    (Digest.to_hex (Digest.string (Buffer.contents bits)))

let verdict_char = function
  | Stc.Guard_band.Good -> 'G'
  | Stc.Guard_band.Bad -> 'B'
  | Stc.Guard_band.Guard -> '?'

(* A flow's fingerprint, its counts on [test] and its verdict on every
   test device. *)
let flow_lines prefix flow test =
  (match Stc_floor.Flow_io.fingerprint flow with
   | Ok f -> line "bytes" (prefix ^ "/fingerprint") f
   | Error e -> line "fact" (prefix ^ "/fingerprint") ("error: " ^ e));
  let c = Compaction.evaluate_flow flow test in
  line "fact" (prefix ^ "/escape-loss-guard")
    (Printf.sprintf "%d %d %d of %d" c.Metrics.escapes c.Metrics.losses c.Metrics.guards
       c.Metrics.total);
  let verdicts =
    String.init (Device_data.n_instances test) (fun i ->
        verdict_char (Compaction.flow_verdict flow (Device_data.instance_row test i)))
  in
  line "fact" (prefix ^ "/verdicts") (Digest.to_hex (Digest.string verdicts))

let opamp seed =
  let train, test = Experiment.generate_opamp ~seed ~n_train:800 ~n_test:400 () in
  let result =
    Compaction.greedy ~order:(Stc.Order.Given Experiment.opamp_examination_order)
      Experiment.opamp_config ~train ~test
  in
  let prefix = Printf.sprintf "opamp/%d/800+400" seed in
  List.iteri
    (fun i s ->
      line "fact"
        (Printf.sprintf "%s/step-%02d" prefix i)
        (Printf.sprintf "%s %s %.17g"
           (key_name Experiment.opamp_specs.(s.Compaction.spec_index).Stc.Spec.name)
           (if s.Compaction.accepted then "eliminated" else "kept")
           s.Compaction.error))
    result.Compaction.steps;
  flow_lines (prefix ^ "/flow") result.Compaction.flow test

let mems seed ~n_train ~n_test =
  let train, test = Experiment.generate_mems ~seed ~n_train ~n_test () in
  let prefix = Printf.sprintf "mems/%d/%d+%d" seed n_train n_test in
  List.iter
    (fun (name, dropped) ->
      let _, flow = Compaction.eliminate Experiment.mems_config ~train ~test ~dropped in
      flow_lines (Printf.sprintf "%s/%s" prefix name) flow test)
    [
      ("-40C", Experiment.mems_cold_indices);
      ("80C", Experiment.mems_hot_indices);
      ("both", Array.append Experiment.mems_cold_indices Experiment.mems_hot_indices);
    ]

let record () =
  List.iter population seeds;
  List.iter opamp seeds;
  List.iter
    (fun seed ->
      mems seed ~n_train:800 ~n_test:400;
      mems seed ~n_train:1000 ~n_test:1000)
    seeds

(* ----------------------------- diff ------------------------------ *)

exception Bad_input of string

(* KEY -> (KIND, VALUE), and the keys in file order *)
let read path =
  let ic = try open_in path with Sys_error e -> raise (Bad_input e) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let table = Hashtbl.create 8192 and order = ref [] in
  let rec go n =
    match input_line ic with
    | exception End_of_file -> ()
    | l ->
      (match String.split_on_char ' ' l with
       | kind :: key :: (_ :: _ as value) when List.mem kind [ "spec"; "bytes"; "fact" ] ->
         if Hashtbl.mem table key then
           raise (Bad_input (Printf.sprintf "%s:%d: key %s twice" path n key));
         Hashtbl.replace table key (kind, String.concat " " value);
         order := key :: !order
       | _ -> raise (Bad_input (Printf.sprintf "%s:%d: not KIND KEY VALUE" path n)));
      go (n + 1)
  in
  go 1;
  (table, List.rev !order)

let spec_of_key key =
  match String.rindex_opt key '/' with
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)
  | None -> key

let diff old_path new_path =
  let old_t, old_keys = read old_path and new_t, new_keys = read new_path in
  let identical = ref 0 and changed = ref [] and moved_bytes = ref [] in
  (* spec name -> (lines moved, largest relative move, its key), in
     order of first appearance *)
  let moves = Hashtbl.create 16 and spec_order = ref [] in
  let move key rel =
    let spec = spec_of_key key in
    match Hashtbl.find_opt moves spec with
    | None ->
      spec_order := spec :: !spec_order;
      Hashtbl.replace moves spec (1, rel, key)
    | Some (n, worst, wkey) ->
      Hashtbl.replace moves spec
        (if rel > worst then (n + 1, rel, key) else (n + 1, worst, wkey))
  in
  let change key what = changed := (key, what) :: !changed in
  List.iter
    (fun key ->
      let kind, ov = Hashtbl.find old_t key in
      match Hashtbl.find_opt new_t key with
      | None -> change key (Printf.sprintf "%s -> (absent)" ov)
      | Some (kind', nv) ->
        if kind <> kind' then change key (Printf.sprintf "%s %s -> %s %s" kind ov kind' nv)
        else if ov = nv then incr identical
        else begin
          match kind with
          | "spec" -> (
            match (float_of_string_opt ov, float_of_string_opt nv) with
            | Some a, Some b when Float.is_finite a && Float.is_finite b ->
              move key (if a = 0.0 then Float.abs b else Float.abs (b -. a) /. Float.abs a)
            | _ -> change key (Printf.sprintf "%s -> %s" ov nv))
          | "bytes" -> moved_bytes := key :: !moved_bytes
          | _ -> change key (Printf.sprintf "%s -> %s" ov nv)
        end)
    old_keys;
  List.iter
    (fun key ->
      if not (Hashtbl.mem old_t key) then
        change key (Printf.sprintf "(absent) -> %s" (snd (Hashtbl.find new_t key))))
    new_keys;
  let moved_specs = Hashtbl.fold (fun _ (n, _, _) acc -> acc + n) moves 0 in
  let moved_bytes = List.rev !moved_bytes and changed = List.rev !changed in
  Printf.printf "equiv-diff: parent %s, change %s\n" old_path new_path;
  Printf.printf "%d identical, %d moved, %d changed\n" !identical
    (moved_specs + List.length moved_bytes)
    (List.length changed);
  if !spec_order <> [] then begin
    Printf.printf "\nmoved spec values, the largest relative move per spec:\n";
    List.iter
      (fun spec ->
        let n, worst, key = Hashtbl.find moves spec in
        Printf.printf "  %-24s %5d moved, the largest by %.2e (%s)\n" spec n worst key)
      (List.rev !spec_order)
  end;
  if moved_bytes <> [] then begin
    Printf.printf "\nmoved bytes:\n";
    List.iter (Printf.printf "  %s\n") moved_bytes
  end;
  if changed <> [] then begin
    Printf.printf "\nchanged:\n";
    List.iter (fun (key, what) -> Printf.printf "  %s: %s\n" key what) changed
  end;
  if changed <> [] then 1 else 0

let () =
  let status =
    match Array.to_list Sys.argv with
    | [ _; "record" ] ->
      record ();
      0
    | [ _; "diff"; old_path; new_path ] -> (
      try diff old_path new_path
      with Bad_input e ->
        prerr_endline ("equiv: " ^ e);
        2)
    | _ ->
      prerr_endline "usage: equiv record | equiv diff OLD NEW";
      2
  in
  exit status
