type counts = {
  total : int;
  truth_good : int;
  truth_bad : int;
  escapes : int;
  losses : int;
  guards : int;
  correct_good : int;
  correct_bad : int;
}

let empty =
  {
    total = 0;
    truth_good = 0;
    truth_bad = 0;
    escapes = 0;
    losses = 0;
    guards = 0;
    correct_good = 0;
    correct_bad = 0;
  }

let record c ~truth_good verdict =
  let c =
    {
      c with
      total = c.total + 1;
      truth_good = c.truth_good + (if truth_good then 1 else 0);
      truth_bad = c.truth_bad + (if truth_good then 0 else 1);
    }
  in
  match (verdict, truth_good) with
  | Guard_band.Guard, _ -> { c with guards = c.guards + 1 }
  | Guard_band.Good, true -> { c with correct_good = c.correct_good + 1 }
  | Guard_band.Good, false -> { c with escapes = c.escapes + 1 }
  | Guard_band.Bad, false -> { c with correct_bad = c.correct_bad + 1 }
  | Guard_band.Bad, true -> { c with losses = c.losses + 1 }

let tally ~truth ~verdicts =
  if Array.length truth <> Array.length verdicts then
    invalid_arg "Metrics.tally: length mismatch";
  let c = ref empty in
  Array.iteri (fun i t -> c := record !c ~truth_good:t verdicts.(i)) truth;
  !c

let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let escape_pct c = pct c.escapes c.total
let loss_pct c = pct c.losses c.total
let guard_pct c = pct c.guards c.total
let yield_pct c = pct c.truth_good c.total
let prediction_error_pct c = pct (c.escapes + c.losses) c.total
