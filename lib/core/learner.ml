module Svr = Stc_svm.Svr
module Svc = Stc_svm.Svc
module Mlp = Stc_learn.Mlp

type spec =
  | Epsilon_svr of { c : float; epsilon : float; gamma : float option }
  | C_svc of { c : float; gamma : float option }
  | Mlp of Mlp.config

let name = function
  | Epsilon_svr _ -> "svr"
  | C_svc _ -> "svc"
  | Mlp _ -> "mlp"

let default_svr = Epsilon_svr { c = 10.0; epsilon = 0.1; gamma = None }
let default_mlp = Mlp Stc_learn.Mlp.default_config

let train spec ~features ~labels =
  let n = Array.length labels in
  assert (n > 0);
  let all_same =
    let first = labels.(0) in
    Array.for_all (fun l -> l = first) labels
  in
  if all_same then Guard_band.constant labels.(0)
  else begin
    match spec with
    | Epsilon_svr { c; epsilon; gamma } ->
      let y = Array.map float_of_int labels in
      Guard_band.Svr (Svr.train ~c ~epsilon ?gamma ~x:features ~y ())
    | C_svc { c; gamma } ->
      Guard_band.Svc (Svc.train ~c ?gamma ~x:features ~y:labels ())
    | Mlp config ->
      (* same ±1-target convention as the SVR path; the MLP classifies
         by the sign of its regression output *)
      let y = Array.map float_of_int labels in
      Guard_band.Mlp (Mlp.train ~config ~x:features ~y ())
  end

let predict = Guard_band.predict
let save = Model_text.to_text

let load text =
  let open Textio in
  let cur = cursor_of_string text in
  let* m = Model_text.parse cur in
  if not (at_end cur) then fail cur "trailing content after model" else Ok m
