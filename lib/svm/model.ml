type t = { gamma : float; sv : Flat.t; coef : float array; b : float }

let decision m x = Flat.rbf_decision m.sv ~gamma:m.gamma ~coef:m.coef ~b:m.b x

let classify m x = if decision m x >= 0.0 then 1 else -1

let fp = Printf.sprintf "%.17g"

let to_string ~tag m =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer (Printf.sprintf "%s\n" tag);
  Buffer.add_string buffer (Printf.sprintf "kernel rbf %s\n" (fp m.gamma));
  Buffer.add_string buffer (Printf.sprintf "bias %s\n" (fp m.b));
  Buffer.add_string buffer (Printf.sprintf "nsv %d\n" (Flat.n_rows m.sv));
  for i = 0 to Flat.n_rows m.sv - 1 do
    Buffer.add_string buffer (fp m.coef.(i));
    Array.iter
      (fun v ->
        Buffer.add_char buffer ' ';
        Buffer.add_string buffer (fp v))
      (Flat.row m.sv i);
    Buffer.add_char buffer '\n'
  done;
  Buffer.contents buffer

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

let gamma_of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "rbf"; g ] -> parse_finite "rbf gamma" g
  | _ -> Error "unknown kernel"

let of_string ~tag text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | header :: rest when header = tag ->
    let rec parse_headers gamma bias = function
      | line :: more ->
        (match String.index_opt line ' ' with
         | Some i ->
           let key = String.sub line 0 i in
           let value = String.sub line (i + 1) (String.length line - i - 1) in
           (match key with
            | "kernel" ->
              let* g = gamma_of_string value in
              parse_headers (Some g) bias more
            | "bias" ->
              let* b = parse_finite "bias" value in
              parse_headers gamma (Some b) more
            | "nsv" ->
              (match int_of_string_opt value with
               | Some n -> Ok (gamma, bias, n, more)
               | None -> Error "bad nsv")
            | _ -> Error (Printf.sprintf "unknown header %S" key))
         | None -> Error (Printf.sprintf "malformed header line %S" line))
      | [] -> Error "missing headers"
    in
    let* gamma, bias, nsv, body = parse_headers None None rest in
    (match (gamma, bias) with
     | Some gamma, Some b ->
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
                "ragged support vectors (vector %d has %d cells, vector 1 has \
                 %d)"
                (i + 1) (Array.length sv.(i)) (Array.length sv.(0)))
         | None -> Ok { gamma; sv = Flat.of_rows sv; coef; b }
       end
     | _ -> Error "missing kernel or bias header")
  | header :: _ -> Error (Printf.sprintf "expected %S header, got %S" tag header)
  | [] -> Error "empty model text"
