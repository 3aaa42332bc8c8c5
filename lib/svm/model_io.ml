let fp = Printf.sprintf "%.17g"

let kernel_to_string = function
  | Kernel.Linear -> "linear"
  | Kernel.Rbf { gamma } -> Printf.sprintf "rbf %s" (fp gamma)
  | Kernel.Polynomial { gamma; coef0; degree } ->
    Printf.sprintf "poly %s %s %d" (fp gamma) (fp coef0) degree
  | Kernel.Sigmoid { gamma; coef0 } ->
    Printf.sprintf "sigmoid %s %s" (fp gamma) (fp coef0)

let ( let* ) = Result.bind

(* float_of_string accepts "nan" and "inf", which no trained model
   holds: a saved model carrying one is corrupt, not a model *)
let parse_finite what s =
  match float_of_string_opt s with
  | Some v when Float.is_finite v -> Ok v
  | Some _ -> Error ("non-finite " ^ what)
  | None -> Error ("bad " ^ what)

(* stops at the first error *)
let map_result f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
      let* v = f x in
      go (v :: acc) rest
  in
  go [] xs

let kernel_of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "linear" ] -> Ok Kernel.Linear
  | [ "rbf"; g ] ->
    let* gamma = parse_finite "rbf gamma" g in
    Ok (Kernel.Rbf { gamma })
  | [ "poly"; g; c0; d ] ->
    let* gamma = parse_finite "poly gamma" g in
    let* coef0 = parse_finite "poly coef0" c0 in
    (match int_of_string_opt d with
     | Some degree -> Ok (Kernel.Polynomial { gamma; coef0; degree })
     | None -> Error "bad poly degree")
  | [ "sigmoid"; g; c0 ] ->
    let* gamma = parse_finite "sigmoid gamma" g in
    let* coef0 = parse_finite "sigmoid coef0" c0 in
    Ok (Kernel.Sigmoid { gamma; coef0 })
  | _ -> Error "unknown kernel"

(* shared flat format for both model families *)
let raw_to_string ~tag ~kernel ~sv ~coef ~b =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer (Printf.sprintf "%s\n" tag);
  Buffer.add_string buffer (Printf.sprintf "kernel %s\n" (kernel_to_string kernel));
  Buffer.add_string buffer (Printf.sprintf "bias %s\n" (fp b));
  Buffer.add_string buffer (Printf.sprintf "nsv %d\n" (Array.length sv));
  Array.iteri
    (fun i row ->
      Buffer.add_string buffer (fp coef.(i));
      Array.iter
        (fun v ->
          Buffer.add_char buffer ' ';
          Buffer.add_string buffer (fp v))
        row;
      Buffer.add_char buffer '\n')
    sv;
  Buffer.contents buffer

let raw_of_string ~tag text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | header :: rest when header = tag ->
    let rec parse_headers kernel bias nsv = function
      | line :: more ->
        (match String.index_opt line ' ' with
         | Some i ->
           let key = String.sub line 0 i in
           let value = String.sub line (i + 1) (String.length line - i - 1) in
           (match key with
            | "kernel" ->
              (match kernel_of_string value with
               | Ok k -> parse_headers (Some k) bias nsv more
               | Error e -> Error e)
            | "bias" ->
              let* b = parse_finite "bias" value in
              parse_headers kernel (Some b) nsv more
            | "nsv" ->
              (match int_of_string_opt value with
               | Some n -> Ok (kernel, bias, n, more)
               | None -> Error "bad nsv")
            | _ -> Error (Printf.sprintf "unknown header %S" key))
         | None -> Error (Printf.sprintf "malformed header line %S" line))
      | [] -> Error "missing headers"
    in
    (match parse_headers None None 0 rest with
     | Error e -> Error e
     | Ok (kernel, bias, nsv, body) ->
       (match (kernel, bias) with
        | Some kernel, Some b ->
          if List.length body <> nsv then Error "support-vector count mismatch"
          else begin
            (* each line is [coef v1 v2 ...] *)
            let parse_row line =
              match
                String.split_on_char ' ' line |> List.filter (fun t -> t <> "")
              with
              | [] -> Error "malformed support-vector line"
              | c :: cells ->
                let* coef = parse_finite "coefficient" c in
                let* row = map_result (parse_finite "support-vector cell") cells in
                Ok (coef, Array.of_list row)
            in
            let* rows = map_result parse_row body in
            let coef = Array.of_list (List.map fst rows) in
            let sv = Array.of_list (List.map snd rows) in
            (* the model stores its support vectors as one flat matrix,
               which needs one width *)
            match
              Array.find_index (fun r -> Array.length r <> Array.length sv.(0)) sv
            with
            | Some i ->
              Error
                (Printf.sprintf
                   "ragged support vectors (vector %d has %d cells, vector 1 \
                    has %d)"
                   (i + 1) (Array.length sv.(i)) (Array.length sv.(0)))
            | None -> Ok (kernel, sv, coef, b)
          end
        | _ -> Error "missing kernel or bias header"))
  | header :: _ -> Error (Printf.sprintf "expected %S header, got %S" tag header)
  | [] -> Error "empty model text"

let svr_to_string m =
  let r = Svr.to_raw m in
  raw_to_string ~tag:"stc-svr-1" ~kernel:r.Svr.raw_kernel ~sv:r.Svr.raw_sv
    ~coef:r.Svr.raw_coef ~b:r.Svr.raw_b

let svr_of_string text =
  match raw_of_string ~tag:"stc-svr-1" text with
  | Error e -> Error e
  | Ok (kernel, sv, coef, b) ->
    Ok (Svr.of_raw { Svr.raw_kernel = kernel; raw_sv = sv; raw_coef = coef; raw_b = b })

let svc_to_string m =
  let r = Svc.to_raw m in
  raw_to_string ~tag:"stc-svc-1" ~kernel:r.Svc.raw_kernel ~sv:r.Svc.raw_sv
    ~coef:r.Svc.raw_coef ~b:r.Svc.raw_b

let svc_of_string text =
  match raw_of_string ~tag:"stc-svc-1" text with
  | Error e -> Error e
  | Ok (kernel, sv, coef, b) ->
    Ok (Svc.of_raw { Svc.raw_kernel = kernel; raw_sv = sv; raw_coef = coef; raw_b = b })
