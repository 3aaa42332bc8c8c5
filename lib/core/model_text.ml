module Model = Stc_svm.Model

open Textio

let all_families = [ "constant"; "svr"; "svc"; "mlp" ]
let legacy_families = [ "constant"; "svr"; "svc" ]

(* First body line each serialised family must start with. The header's
   family token and the body's own tag are redundant on a well-formed
   file; checking them against each other up front turns a
   wrong-family payload (e.g. SVR text under a "model mlp" header)
   into a line-numbered error at the tag line instead of a confusing
   parse failure deep inside the wrong family's reader. *)
let body_tag = function
  | "svr" -> "stc-svr-1"
  | "svc" -> "stc-svc-1"
  | "mlp" -> "stc-mlp-1"
  | f -> invalid_arg ("Model_text.body_tag: unknown family " ^ f)

let to_text (m : Guard_band.model) =
  match m with
  | Guard_band.Constant c -> Ok (Printf.sprintf "model constant %d\n" c)
  | Guard_band.Svr m ->
    let body = Model.to_string ~tag:(body_tag "svr") m in
    Ok (Printf.sprintf "model svr %d\n%s" (count_lines body) body)
  | Guard_band.Svc m ->
    let body = Model.to_string ~tag:(body_tag "svc") m in
    Ok (Printf.sprintf "model svc %d\n%s" (count_lines body) body)
  | Guard_band.Mlp mlp ->
    let body = Stc_learn.Mlp.to_string mlp in
    Ok (Printf.sprintf "model mlp %d\n%s" (count_lines body) body)
  | Guard_band.Opaque _ ->
    Error
      "band holds an opaque classifier (an adaptive-guard margin); only \
       Constant/Svr/Svc/Mlp models serialise"

let parse ?(families = all_families) cur =
  let allowed f = List.mem f families in
  let* line = next_line cur in
  match String.split_on_char ' ' line with
  | [ "model"; "constant"; c ] ->
    if not (allowed "constant") then
      fail cur "model family \"constant\" not allowed in this container"
    else
      let* c = parse_int cur "constant label" c in
      if c <> 1 && c <> -1 then fail cur "constant label must be +/-1"
      else Ok (Guard_band.Constant c)
  | [ "model"; ("svr" | "svc" | "mlp") as family; nlines ] ->
    if not (allowed family) then
      fail cur
        (Printf.sprintf
           "model family %S not allowed in this container (needs a newer \
            format version)"
           family)
    else
      let* nlines = parse_int cur "model line count" nlines in
      if nlines < 0 then fail cur "negative model line count"
      else if nlines = 0 then
        fail cur
          (Printf.sprintf "embedded %s body is empty (missing %S tag)" family
             (body_tag family))
      else
        (* Check the body's own tag on its first line before reading the
           rest, so a family mismatch fails fast at this line. *)
        let* first = next_line cur in
        let expected = body_tag family in
        if first <> expected then
          fail cur
            (Printf.sprintf
               "embedded %s body starts with %S, expected %S (model family \
                mismatch)"
               family first expected)
        else
          let* rest = take_lines cur (nlines - 1) in
          let body = String.concat "\n" (first :: rest) ^ "\n" in
          let svm wrap =
            match Model.of_string ~tag:expected body with
            | Ok m -> Ok (wrap m)
            | Error e -> fail cur (Printf.sprintf "embedded %s: %s" family e)
          in
          (match family with
           | "svr" -> svm (fun m -> Guard_band.Svr m)
           | "svc" -> svm (fun m -> Guard_band.Svc m)
           | _ -> begin
               match Stc_learn.Mlp.of_string body with
               | Ok m -> Ok (Guard_band.Mlp m)
               | Error e -> fail cur ("embedded mlp: " ^ e)
             end)
  | _ -> fail cur "malformed model line"
