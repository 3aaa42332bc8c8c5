(* Regression: a device fits its calibration when it is built, not on
   its first simulate call, so a fresh device can be simulated on two
   domains at once. A calibration first resolved inside [simulate]
   raised CamlinternalLazy.Undefined when two domains forced it
   together. This runs as its own executable so that no earlier test
   has built a device and resolved the calibration already. *)

module Mc = Stc_process.Montecarlo
module E = Stc.Experiment

let race name device =
  match Mc.generate_parallel ~domains:2 ~seed:11 device ~n:4 with
  | data when Array.length data.Mc.specs = 4 ->
    Printf.printf "%s: 4 instances on 2 domains\n" name
  | data ->
    Printf.eprintf "%s: %d instances, expected 4\n" name (Array.length data.Mc.specs);
    exit 1
  | exception e ->
    Printf.eprintf "%s: %s\n" name (Printexc.to_string e);
    exit 1

let () =
  race "op-amp" (E.opamp_device ());
  race "MEMS" (E.mems_device ())
