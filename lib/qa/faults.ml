module Spec = Stc.Spec
module Compaction = Stc.Compaction
module Guard_band = Stc.Guard_band
module Pool = Stc_process.Pool
module Floor = Stc_floor.Floor
module Flow_io = Stc_floor.Flow_io
module Device_csv = Stc_floor.Device_csv
module Rng = Stc_numerics.Rng

let errorf fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------- corrupted flows ------------------------ *)

type flow_fault =
  | Truncate of int
  | Mutate_byte of int * char
  | Delete_line of int
  | Duplicate_line of int
  | Version_skew of string

let describe_flow_fault = function
  | Truncate n -> Printf.sprintf "truncate to %d bytes" n
  | Mutate_byte (i, c) -> Printf.sprintf "overwrite byte %d with %C" i c
  | Delete_line i -> Printf.sprintf "delete line %d" i
  | Duplicate_line i -> Printf.sprintf "duplicate line %d" i
  | Version_skew v -> Printf.sprintf "rewrite header to %S" v

let split_lines text = String.split_on_char '\n' text

let join_lines lines = String.concat "\n" lines

let apply_flow_fault fault text =
  match fault with
  | Truncate n -> String.sub text 0 (Stdlib.min n (String.length text))
  | Mutate_byte (i, c) ->
    if i >= String.length text then text
    else begin
      let b = Bytes.of_string text in
      Bytes.set b i c;
      Bytes.to_string b
    end
  | Delete_line i ->
    join_lines (List.filteri (fun j _ -> j <> i) (split_lines text))
  | Duplicate_line i ->
    join_lines
      (List.concat_map
         (fun (j, l) -> if j = i then [ l; l ] else [ l ])
         (List.mapi (fun j l -> (j, l)) (split_lines text)))
  | Version_skew v ->
    (match split_lines text with
     | _ :: rest -> join_lines (v :: rest)
     | [] -> v)

(* Mutations are drawn from the characters the format itself uses, so a
   fair share of them produce files that are wrong in content rather
   than obviously unparsable — the harder case for the loader. *)
let mutation_chars = "0123456789-+. eEnaif%kspdrvcbml\n"

let random_text_fault rng ~versions text =
  let len = Stdlib.max 1 (String.length text) in
  let n_lines = List.length (split_lines text) in
  match Rng.int rng 5 with
  | 0 -> Truncate (Rng.int rng len)
  | 1 ->
    Mutate_byte
      ( Rng.int rng len,
        mutation_chars.[Rng.int rng (String.length mutation_chars)] )
  | 2 -> Delete_line (Rng.int rng n_lines)
  | 3 -> Duplicate_line (Rng.int rng n_lines)
  | _ -> Version_skew (Rng.pick rng versions)

let random_flow_fault rng text =
  random_text_fault rng text
    ~versions:[| "stc-flow-3"; "stc-flow-0"; "STC-FLOW-1"; "stc-floww-1"; "" |]

let random_journal_fault rng text =
  random_text_fault rng text
    ~versions:
      [| "stc-journal-2"; "stc-journal-0"; "STC-JOURNAL-1"; "stc-journall-1"; "" |]

let canonical_or_reject text =
  match Flow_io.of_string text with
  | exception e ->
    errorf "of_string raised %s instead of returning a typed error"
      (Printexc.to_string e)
  | Error _ -> Ok `Rejected
  | Ok flow ->
    (* a harmless mutation may still parse — then the canonicality law
       must hold for what was accepted *)
    (match Flow_io.to_string flow with
     | exception e ->
       errorf "accepted corrupted flow fails to print: %s" (Printexc.to_string e)
     | Error e -> errorf "accepted corrupted flow fails to print: %s" e
     | Ok printed ->
       (match Flow_io.of_string printed with
        | Ok again ->
          if Flow_io.to_string again = Ok printed then Ok `Accepted
          else Error "accepted flow's canonical form is not a fixed point"
        | Error e -> errorf "accepted flow's canonical form does not reparse: %s" e
        | exception e ->
          errorf "canonical reparse raised %s" (Printexc.to_string e)))

let check_flow_corruption rng ~trials flow =
  match Flow_io.to_string flow with
  | Error e -> errorf "flow does not serialise: %s" e
  | Ok text ->
    let rejected = ref 0 and accepted = ref 0 in
    let rec go i =
      if i >= trials then Ok (!rejected, !accepted)
      else begin
        let fault = random_flow_fault rng text in
        let corrupted = apply_flow_fault fault text in
        match canonical_or_reject corrupted with
        | Error e -> errorf "fault %S: %s" (describe_flow_fault fault) e
        | Ok `Rejected ->
          incr rejected;
          go (i + 1)
        | Ok `Accepted ->
          incr accepted;
          go (i + 1)
      end
    in
    go 0

let check_version_skew flow =
  match Flow_io.to_string flow with
  | Error e -> errorf "flow does not serialise: %s" e
  | Ok text ->
    let* () =
      match Flow_io.of_string (apply_flow_fault (Version_skew "stc-flow-3") text) with
      | Ok _ -> Error "a stc-flow-3 file was accepted by the stc-flow-1/2 loader"
      | Error e ->
        if contains ~sub:"unsupported flow version" e then Ok ()
        else errorf "version-skew error does not name the version: %S" e
      | exception e -> errorf "version skew raised %s" (Printexc.to_string e)
    in
    (* cut at a line boundary so the parser hits end-of-input cleanly *)
    let truncated =
      match split_lines text with
      | a :: b :: c :: _ -> String.concat "\n" [ a; b; c ] ^ "\n"
      | _ -> text
    in
    (match Flow_io.of_string truncated with
     | Ok _ -> Error "a truncated flow was accepted"
     | Error e ->
       if contains ~sub:"truncated" e then Ok ()
       else errorf "truncation error does not mention truncation: %S" e
     | exception e -> errorf "truncated parse raised %s" (Printexc.to_string e))

let expect_rejection ~what ~needle text =
  match Flow_io.of_string text with
  | exception e -> errorf "%s: of_string raised %s" what (Printexc.to_string e)
  | Ok _ -> errorf "%s: the flow was accepted" what
  | Error e ->
    if contains ~sub:needle e then Ok ()
    else errorf "%s: error %S does not mention %S" what e needle

(* Band models whose every line parses but which cannot serve a row:
   support vectors of two widths, and models that read more inputs than
   the flow keeps. *)
let check_malformed_models (flow : Compaction.flow) =
  let* text = Flow_io.to_string flow in
  let lines = Array.of_list (split_lines text) in
  (* the second support vector of every model that has two, one cell
     short (a line is the coefficient, then the cells) *)
  let ragged =
    List.filter_map
      (fun i ->
        match
          ( String.split_on_char ' ' lines.(i),
            List.rev (String.split_on_char ' ' lines.(i + 2)) )
        with
        | [ "nsv"; k ], _ :: (_ :: _ as short)
          when Option.value ~default:0 (int_of_string_opt k) >= 2 ->
          let cut = Array.copy lines in
          cut.(i + 2) <- String.concat " " (List.rev short);
          Some (join_lines (Array.to_list cut))
        | _ -> None)
      (List.init (Array.length lines - 2) Fun.id)
  in
  (* the last kept spec moved to the dropped list: the partition stays
     valid, but the models read one input more than the flow keeps *)
  let kept = flow.Compaction.kept in
  let n = Array.length kept in
  let* narrowed =
    match flow.Compaction.band with
    | Some band
      when n > 0
           && (Guard_band.input_width (Guard_band.tight_model band) <> None
              || Guard_band.input_width (Guard_band.loose_model band) <> None) ->
      Flow_io.to_string
        {
          flow with
          Compaction.kept = Array.sub kept 0 (n - 1);
          dropped = Array.append flow.Compaction.dropped [| kept.(n - 1) |];
        }
      |> Result.map (fun text -> [ text ])
    | _ -> Ok []
  in
  let rejected what needle texts =
    List.fold_left
      (fun acc text ->
        let* () = acc in
        expect_rejection ~what ~needle text)
      (Ok ()) texts
  in
  let* () = rejected "ragged support vectors" "ragged support vectors" ragged in
  let* () = rejected "a kept spec moved to dropped" "inputs but the flow keeps" narrowed in
  Ok (List.length ragged, List.length narrowed)

(* --------------------------- device rows -------------------------- *)

type row_fault =
  | Nan_cell of int
  | Pos_inf_cell of int
  | Neg_inf_cell of int
  | Empty_row
  | Ragged of int

let describe_row_fault = function
  | Nan_cell i -> Printf.sprintf "NaN in cell %d" i
  | Pos_inf_cell i -> Printf.sprintf "+inf in cell %d" i
  | Neg_inf_cell i -> Printf.sprintf "-inf in cell %d" i
  | Empty_row -> "empty row"
  | Ragged n -> Printf.sprintf "resize row to %d cells" n

let apply_row_fault fault row =
  let poke i v =
    let r = Array.copy row in
    if Array.length r > 0 then r.(i mod Array.length r) <- v;
    r
  in
  match fault with
  | Nan_cell i -> poke i Float.nan
  | Pos_inf_cell i -> poke i Float.infinity
  | Neg_inf_cell i -> poke i Float.neg_infinity
  | Empty_row -> [||]
  | Ragged n -> Array.init n (fun i -> if i < Array.length row then row.(i) else 0.5)

let random_row_fault rng ~width =
  match Rng.int rng 5 with
  | 0 -> Nan_cell (Rng.int rng (Stdlib.max 1 width))
  | 1 -> Pos_inf_cell (Rng.int rng (Stdlib.max 1 width))
  | 2 -> Neg_inf_cell (Rng.int rng (Stdlib.max 1 width))
  | 3 -> Empty_row
  | _ ->
    (* never 0 cells (that is Empty_row, a blank CSV line) and never
       exactly [width] (that would not be a fault at all) *)
    let n = 1 + Rng.int rng (width + 1) in
    Ragged (if n = width then width + 1 else n)

let fp = Printf.sprintf "%.17g"

let csv_text ~specs ~rows =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer
    (String.concat ","
       (Array.to_list (Array.map (fun (s : Spec.t) -> s.Spec.name) specs)));
  Buffer.add_char buffer '\n';
  Array.iter
    (fun row ->
      Buffer.add_string buffer
        (String.concat "," (Array.to_list (Array.map fp row)));
      Buffer.add_char buffer '\n')
    rows;
  Buffer.contents buffer

let with_temp_text text f =
  let path = Filename.temp_file "stc_qa" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc text);
      f path)

let check_csv_rejects_bad_rows rng ~trials ~specs ~rows =
  if Array.length rows = 0 then Error "need at least one row to corrupt"
  else begin
    let width = Array.length specs in
    let rec go i =
      if i >= trials then Ok ()
      else begin
        let fault = random_row_fault rng ~width in
        let victim = Rng.int rng (Array.length rows) in
        let faulted =
          Array.mapi
            (fun j row -> if j = victim then apply_row_fault fault row else row)
            rows
        in
        let text = csv_text ~specs ~rows:faulted in
        let outcome =
          match with_temp_text text (fun path -> Device_csv.read ~path) with
          | r -> `Result r
          | exception e -> `Raised e
        in
        let verdict =
          match (fault, outcome) with
          | _, `Raised e ->
            errorf "Device_csv.read raised %s on %s" (Printexc.to_string e)
              (describe_row_fault fault)
          | Empty_row, `Result (Ok (_, rows')) ->
            (* documented degradation: a blank line is skipped *)
            if Array.length rows' = Array.length rows - 1 then Ok ()
            else
              errorf "blank row: expected %d surviving rows, read %d"
                (Array.length rows - 1) (Array.length rows')
          | Empty_row, `Result (Error e) ->
            errorf "blank row rejected outright: %s" e
          | ( (Nan_cell _ | Pos_inf_cell _ | Neg_inf_cell _ | Ragged _),
              `Result (Ok _) ) ->
            errorf "CSV with %s was accepted" (describe_row_fault fault)
          | ( (Nan_cell _ | Pos_inf_cell _ | Neg_inf_cell _ | Ragged _),
              `Result (Error e) ) ->
            if contains ~sub:"line" e then Ok ()
            else errorf "error for %s does not locate the line: %S"
                   (describe_row_fault fault) e
        in
        let* () = verdict in
        go (i + 1)
      end
    in
    go 0
  end

let check_floor_bad_rows rng ~trials flow =
  let k = Array.length flow.Compaction.specs in
  let base_row () =
    Array.init k (fun j ->
        let s = flow.Compaction.specs.(j) in
        Rng.uniform rng s.Spec.range.Spec.lower s.Spec.range.Spec.upper)
  in
  Floor.with_engine flow (fun engine ->
      let rec go i =
        if i >= trials then Ok ()
        else begin
          let fault = random_row_fault rng ~width:k in
          let row = apply_row_fault fault (base_row ()) in
          let verdict =
            match fault with
            | Empty_row when k = 0 -> Ok ()
            | Empty_row | Ragged _ ->
              (* width mismatch: the documented typed error *)
              (match Floor.process engine [| row |] with
               | exception Invalid_argument _ -> Ok ()
               | exception e ->
                 errorf "%s raised %s, not Invalid_argument"
                   (describe_row_fault fault) (Printexc.to_string e)
               | _ -> errorf "%s was accepted" (describe_row_fault fault))
            | Nan_cell _ | Pos_inf_cell _ | Neg_inf_cell _ ->
              (* graceful, deterministic degradation *)
              (match
                 ( Floor.process engine [| row |],
                   Floor.process engine [| row |],
                   Oracle.reference_outcomes flow [| row |] )
               with
               | exception e ->
                 errorf "Floor.process raised %s on %s" (Printexc.to_string e)
                   (describe_row_fault fault)
               | a, b, r ->
                 if
                   Guard_band.equal_verdict a.(0).Floor.verdict
                     b.(0).Floor.verdict
                   && Guard_band.equal_verdict a.(0).Floor.verdict
                        r.(0).Floor.verdict
                 then Ok ()
                 else
                   errorf "%s: verdict not deterministic or diverges from the \
                           reference binner"
                     (describe_row_fault fault))
          in
          let* () = verdict in
          go (i + 1)
        end
      in
      go 0)

(* ----------------------------- journals --------------------------- *)

module Journal = Stc.Journal

let journal_canonical_or_reject text =
  match Journal.of_string text with
  | exception e ->
    errorf "Journal.of_string raised %s instead of returning a typed error"
      (Printexc.to_string e)
  | Error _ -> Ok `Rejected
  | Ok replay ->
    let printed = Journal.to_string replay in
    (match Journal.of_string printed with
     | Ok again ->
       if Journal.to_string again = printed then Ok `Accepted
       else Error "accepted journal's canonical form is not a fixed point"
     | Error e ->
       errorf "accepted journal's canonical form does not reparse: %s" e
     | exception e ->
       errorf "canonical journal reparse raised %s" (Printexc.to_string e))

let check_journal_corruption rng ~trials replay =
  let text = Journal.to_string replay in
  let rejected = ref 0 and accepted = ref 0 in
  let rec go i =
    if i >= trials then Ok (!rejected, !accepted)
    else begin
      let fault = random_journal_fault rng text in
      let corrupted = apply_flow_fault fault text in
      match journal_canonical_or_reject corrupted with
      | Error e -> errorf "fault %S: %s" (describe_flow_fault fault) e
      | Ok `Rejected ->
        incr rejected;
        go (i + 1)
      | Ok `Accepted ->
        incr accepted;
        go (i + 1)
    end
  in
  go 0

let check_journal_truncation () =
  let entry i =
    {
      Journal.spec_index = i * 2;
      accepted = i mod 2 = 0;
      error = 0.25 /. float_of_int (i + 1);
    }
  in
  let replay =
    {
      Journal.fingerprint = "0123456789abcdef";
      entries = Array.init 3 entry;
      complete = true;
    }
  in
  let text = Journal.to_string replay in
  let* () =
    match
      Journal.of_string (apply_flow_fault (Version_skew "stc-journal-2") text)
    with
    | Ok _ ->
      Error "a stc-journal-2 file was accepted by the stc-journal-1 loader"
    | Error e ->
      if contains ~sub:"unsupported journal version" e then Ok ()
      else errorf "version-skew error does not name the version: %S" e
    | exception e -> errorf "version skew raised %s" (Printexc.to_string e)
  in
  (* a cut at a record boundary is the legal crash artefact: the
     journal must load as an incomplete run, not be rejected *)
  let lines = split_lines text in
  let boundary =
    (* header (2 lines) + one whole entry (one step line) *)
    join_lines (List.filteri (fun i _ -> i < 3) lines) ^ "\n"
  in
  let* () =
    match Journal.of_string boundary with
    | Ok r ->
      if (not r.Journal.complete) && Array.length r.Journal.entries = 1 then
        Ok ()
      else
        errorf "boundary cut loaded as complete=%b with %d entries"
          r.Journal.complete
          (Array.length r.Journal.entries)
    | Error e -> errorf "boundary cut rejected outright: %s" e
    | exception e -> errorf "boundary cut raised %s" (Printexc.to_string e)
  in
  (* a cut inside a record is corruption and must carry a line number *)
  let* () =
    match Journal.of_string (String.sub text 0 (String.length text - 2)) with
    | Ok _ -> Error "a mid-record cut was accepted"
    | Error e ->
      if contains ~sub:"line" e then Ok ()
      else errorf "mid-record cut error has no line number: %S" e
    | exception e -> errorf "mid-record cut raised %s" (Printexc.to_string e)
  in
  (* a reordered sequence number must be rejected with its line *)
  let reseq =
    join_lines
      (List.map
         (fun l ->
           if String.length l >= 7 && String.sub l 0 7 = "step 1 " then
             "step 7 " ^ String.sub l 7 (String.length l - 7)
           else l)
         lines)
  in
  (match Journal.of_string reseq with
   | Ok _ -> Error "an out-of-order step sequence was accepted"
   | Error e ->
     if contains ~sub:"line" e && contains ~sub:"out of order" e then Ok ()
     else errorf "reseq error does not locate the bad step: %S" e
   | exception e -> errorf "reseq parse raised %s" (Printexc.to_string e))

(* --------------------------- pool workers ------------------------- *)

exception Injected_failure

let check_pool_worker_failure ~domains =
  Pool.with_pool ~domains (fun pool ->
      let* () =
        match Pool.run pool ~n:64 (fun i -> if i = 13 then raise Injected_failure)
        with
        | exception Injected_failure -> Ok ()
        | exception e ->
          errorf "expected the injected exception, got %s" (Printexc.to_string e)
        | () -> Error "a worker failure was silently swallowed"
      in
      (* the pool must survive the failed job and run a different one *)
      let acc = Atomic.make 0 in
      match Pool.run pool ~n:200 (fun i -> ignore (Atomic.fetch_and_add acc i))
      with
      | exception e ->
        errorf "pool unusable after a worker failure: %s" (Printexc.to_string e)
      | () ->
        let total = Atomic.get acc in
        if total = 199 * 200 / 2 then Ok ()
        else errorf "post-failure job lost work: sum %d" total)

let check_pool_worker_delay ~domains ~delay_s =
  Pool.with_pool ~domains (fun pool ->
      let hits = Array.make 48 0 in
      let* () =
        match
          Pool.run pool ~n:48 (fun i ->
              if i = 0 then Unix.sleepf delay_s;
              hits.(i) <- hits.(i) + 1)
        with
        | exception e ->
          errorf "delayed job raised %s" (Printexc.to_string e)
        | () ->
          if Array.for_all (fun h -> h = 1) hits then Ok ()
          else Error "a stalled worker lost or duplicated tasks"
      in
      (* the next job on the same pool must see no leftover of the stall *)
      let after = Array.make 16 0 in
      match Pool.run pool ~n:16 (fun i -> after.(i) <- after.(i) + 1) with
      | exception e ->
        errorf "pool unusable after a stalled job: %s" (Printexc.to_string e)
      | () ->
        if Array.for_all (fun h -> h = 1) after then Ok ()
        else Error "the job after a stall lost or duplicated tasks")

let check_pool_misuse () =
  let* () =
    Pool.with_pool ~domains:2 (fun pool ->
        match Pool.run pool ~n:0 (fun _ -> failwith "must not run") with
        | () -> Ok ()
        | exception e ->
          errorf "zero-task job was not a no-op: %s" (Printexc.to_string e))
  in
  let* () =
    match Pool.create ~domains:0 with
    | exception Invalid_argument _ -> Ok ()
    | pool ->
      Pool.shutdown pool;
      Error "domains = 0 was accepted"
  in
  let pool = Pool.create ~domains:2 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  match Pool.run pool ~n:4 ignore with
  | exception Invalid_argument _ -> Ok ()
  | exception e ->
    errorf "run after shutdown raised %s, not Invalid_argument"
      (Printexc.to_string e)
  | () -> Error "run after shutdown succeeded"
