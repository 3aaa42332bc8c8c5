type verdict = Good | Bad | Guard

type classifier = float array -> int

(* A ±1 predictor together with (when available) the trained model data
   behind it, so a flow can be serialised and shipped to the floor. *)
type model =
  | Constant of int
  | Svr of Stc_svm.Model.t
  | Svc of Stc_svm.Model.t
  | Mlp of Stc_learn.Mlp.model
  | Opaque of classifier

type t = {
  tight : model;
  loose : model;
}

let constant c =
  if c <> 1 && c <> -1 then invalid_arg "Guard_band.constant: label must be +/-1";
  Constant c

let predict m =
  match m with
  | Constant c -> fun _ -> c
  | Svr m | Svc m -> Stc_svm.Model.classify m
  | Mlp mlp -> Stc_learn.Mlp.classify mlp
  | Opaque f -> f

let input_width = function
  | (Svr m | Svc m) when Stc_svm.Flat.n_rows m.Stc_svm.Model.sv > 0 ->
    Some (Stc_svm.Flat.dim m.Stc_svm.Model.sv)
  | Mlp m -> Some (Stc_learn.Mlp.dim m)
  | Svr _ | Svc _ | Constant _ | Opaque _ -> None

let of_models ~tight ~loose = { tight; loose }

let make ~tight ~loose = { tight = Opaque tight; loose = Opaque loose }

let single_model m = { tight = m; loose = m }

let single c = single_model (Opaque c)

let tight_model t = t.tight
let loose_model t = t.loose

let is_single t = t.tight == t.loose

let classify t features =
  let pt = predict t.tight features and pl = predict t.loose features in
  match (pt, pl) with
  | 1, 1 -> Good
  | -1, -1 -> Bad
  | 1, -1 | -1, 1 -> Guard
  | _ -> invalid_arg "Guard_band.classify: classifier returned non-±1"

let verdict_to_string = function
  | Good -> "good"
  | Bad -> "bad"
  | Guard -> "guard"

let equal_verdict a b =
  match (a, b) with
  | Good, Good | Bad, Bad | Guard, Guard -> true
  | (Good | Bad | Guard), (Good | Bad | Guard) -> false
