module Spec = Stc.Spec
module Compaction = Stc.Compaction
module Guard_band = Stc.Guard_band
module Model_text = Stc.Model_text

open Stc.Textio

let version = "stc-flow-1"
let version2 = "stc-flow-2"

(* A flow needs the v2 container exactly when some band model belongs
   to a family stc-flow-1 never carried (today: the MLP). Everything
   else keeps writing v1 bytes, so pre-existing SVR/SVC flows — and
   their fingerprints — are untouched by the format bump. *)
let needs_v2 (flow : Compaction.flow) =
  match flow.Compaction.band with
  | None -> false
  | Some band ->
    let is_mlp = function Guard_band.Mlp _ -> true | _ -> false in
    is_mlp (Guard_band.tight_model band)
    || is_mlp (Guard_band.loose_model band)

let version_of_flow flow = if needs_v2 flow then version2 else version

(* ------------------------------ writing --------------------------- *)

let model_to_text m =
  match Model_text.to_text m with
  | Ok _ as ok -> ok
  | Error e -> Error ("Flow_io: " ^ e)

let serialise (flow : Compaction.flow) =
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer (version_of_flow flow);
  Buffer.add_char buffer '\n';
  Buffer.add_string buffer
    (Printf.sprintf "guard_fraction %s\n" (fp flow.Compaction.guard_fraction));
  Buffer.add_string buffer
    (Printf.sprintf "measured_guard %d\n"
       (if flow.Compaction.measured_guard then 1 else 0));
  Buffer.add_string buffer
    (Printf.sprintf "specs %d\n" (Array.length flow.Compaction.specs));
  Array.iter
    (fun (s : Spec.t) ->
      Buffer.add_string buffer
        (Printf.sprintf "spec %s %s %s %s %s\n" (encode_field s.Spec.name)
           (encode_field s.Spec.unit_label) (fp s.Spec.nominal)
           (fp s.Spec.range.Spec.lower) (fp s.Spec.range.Spec.upper)))
    flow.Compaction.specs;
  add_index_line buffer "kept" flow.Compaction.kept;
  add_index_line buffer "dropped" flow.Compaction.dropped;
  match flow.Compaction.band with
  | None ->
    Buffer.add_string buffer "band none\n";
    Ok (Buffer.contents buffer)
  | Some band when Guard_band.is_single band ->
    (match model_to_text (Guard_band.tight_model band) with
     | Error _ as e -> e
     | Ok text ->
       Buffer.add_string buffer "band single\n";
       Buffer.add_string buffer text;
       Ok (Buffer.contents buffer))
  | Some band ->
    (match
       ( model_to_text (Guard_band.tight_model band),
         model_to_text (Guard_band.loose_model band) )
     with
     | Error e, _ | _, Error e -> Error e
     | Ok tight, Ok loose ->
       Buffer.add_string buffer "band pair\n";
       Buffer.add_string buffer tight;
       Buffer.add_string buffer loose;
       Ok (Buffer.contents buffer))

(* [of_string] refuses a guard fraction outside [0, 1), so writing one
   would make a file no floor can load *)
let to_string (flow : Compaction.flow) =
  let g = flow.Compaction.guard_fraction in
  if g >= 0.0 && g < 1.0 then serialise flow
  else Error (Printf.sprintf "Flow_io: guard_fraction %g out of range [0, 1)" g)

(* ------------------------------ reading --------------------------- *)

let of_string text =
  let cur = cursor_of_string text in
  let* header = next_line cur in
  let* model_families =
    if header = version then Ok Stc.Model_text.legacy_families
    else if header = version2 then Ok Stc.Model_text.all_families
    else if String.length header >= 9 && String.sub header 0 9 = "stc-flow-"
    then
      fail cur
        (Printf.sprintf
           "unsupported flow version %S (this build reads %S and %S)" header
           version version2)
    else fail cur (Printf.sprintf "expected %S header, got %S" version header)
  in
    let* guard_fraction = expect_keyword cur "guard_fraction" in
    let* guard_fraction = parse_float cur "guard_fraction" guard_fraction in
    let* () =
      if guard_fraction >= 0.0 && guard_fraction < 1.0 then Ok ()
      else fail cur "guard_fraction out of range [0, 1)"
    in
    let* measured_guard = expect_keyword cur "measured_guard" in
    let* measured_guard =
      match measured_guard with
      | "1" -> Ok true
      | "0" -> Ok false
      | _ -> fail cur "measured_guard must be 0 or 1"
    in
    let* n_specs = expect_keyword cur "specs" in
    let* n_specs = parse_int cur "spec count" n_specs in
    if n_specs < 0 then fail cur "negative spec count"
    else
      let rec read_specs n acc =
        if n = 0 then Ok (Array.of_list (List.rev acc))
        else
          let* line = next_line cur in
          match String.split_on_char ' ' line with
          | [ "spec"; name; unit_label; nominal; lower; upper ] ->
            let* name =
              match decode_field name with
              | Ok v -> Ok v
              | Error e -> fail cur e
            in
            let* unit_label =
              match decode_field unit_label with
              | Ok v -> Ok v
              | Error e -> fail cur e
            in
            let* nominal = parse_float cur "nominal" nominal in
            let* lower = parse_float cur "lower" lower in
            let* upper = parse_float cur "upper" upper in
            (match Spec.make ~name ~unit_label ~nominal ~lower ~upper with
             | spec -> read_specs (n - 1) (spec :: acc)
             | exception Invalid_argument e -> fail cur e)
          | _ -> fail cur "malformed spec line"
      in
      let* specs = read_specs n_specs [] in
      let* kept_line = next_line cur in
      let* kept = parse_index_line cur "kept" kept_line in
      let* dropped_line = next_line cur in
      let* dropped = parse_index_line cur "dropped" dropped_line in
      let check_indices what indices =
        if Array.for_all (fun i -> i >= 0 && i < n_specs) indices then Ok ()
        else fail cur (what ^ " index out of range")
      in
      let* () = check_indices "kept" kept in
      let* () = check_indices "dropped" dropped in
      let* () =
        let seen = Array.make n_specs 0 in
        Array.iter (fun i -> seen.(i) <- seen.(i) + 1) kept;
        Array.iter (fun i -> seen.(i) <- seen.(i) + 1) dropped;
        if Array.for_all (fun c -> c = 1) seen then Ok ()
        else
          fail cur
            "kept and dropped must partition the spec indices (each spec \
             exactly once)"
      in
      let* band_line = next_line cur in
      (* a band model reads the kept specs: one whose width differs
         would fail on every row it is served *)
      let parse_model () =
        let* m = Model_text.parse ~families:model_families cur in
        match Guard_band.input_width m with
        | Some w when w <> Array.length kept ->
          fail cur
            (Printf.sprintf "band model takes %d inputs but the flow keeps %d specs"
               w (Array.length kept))
        | _ -> Ok m
      in
      let* band =
        match band_line with
        | "band none" -> Ok None
        | "band single" ->
          let* m = parse_model () in
          Ok (Some (Guard_band.single_model m))
        | "band pair" ->
          let* tight = parse_model () in
          let* loose = parse_model () in
          Ok (Some (Guard_band.of_models ~tight ~loose))
        | _ -> fail cur "expected band line (none | single | pair)"
      in
      if not (at_end cur) then fail cur "trailing content after flow"
      else
        Ok
          {
            Compaction.specs;
            kept;
            dropped;
            band;
            guard_fraction;
            measured_guard;
          }

(* ---------------------------- fingerprint ------------------------- *)

let fingerprint flow =
  match to_string flow with
  | Error _ as e -> e
  | Ok text -> Ok (Stc.Journal.fingerprint_hex text)

(* ------------------------------- files ---------------------------- *)

let save ~path flow =
  match to_string flow with
  | Error _ as e -> e
  | Ok text ->
    (try
       let oc = open_out_bin path in
       (* closing flushes: a write error there (a full disk) must reach
          the caller, so [close_out] runs inside the body *)
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () ->
           output_string oc text;
           close_out oc);
       Ok ()
     with Sys_error e -> Error e)

let load ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> of_string text
  | exception Sys_error e -> Error e
